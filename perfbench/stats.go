package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 over 200 samples rests on two values and moves with
// every stray stall, so it is withheld rather than printed.
const minBeyond = 10

// Class holds the latencies of one request class. Classes are never
// pooled: a median over two classes of different cost (a 0.15 ms replay
// beside a 0.8 ms query) falls in the gap between them and swings with
// the mix, so each class is summarised on its own.
type Class struct {
	Name string
	ms   []float64
	sum  float64
}

// Add records one sample in milliseconds.
func (c *Class) Add(ms float64) {
	c.ms = append(c.ms, ms)
	c.sum += ms
}

// N returns the number of samples.
func (c *Class) N() int { return len(c.ms) }

// Mean returns the arithmetic mean, or 0 with no samples. Layer times are
// means so that they add up to the op they split.
func (c *Class) Mean() float64 {
	if len(c.ms) == 0 {
		return 0
	}
	return c.sum / float64(len(c.ms))
}

// Percentile returns the nearest-rank q-quantile (0 < q < 1) and whether
// it may be reported: at least minBeyond samples lie strictly above its
// rank.
func (c *Class) Percentile(q float64) (float64, bool) {
	n := len(c.ms)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), c.ms...)
	sort.Float64s(s)
	i := rank(q, n)
	return s[i], n-1-i >= minBeyond
}

// Summary is one printable line: the class, the percentile and its
// sample count, or why the percentile is withheld.
func (c *Class) Summary(q float64) string {
	v, ok := c.Percentile(q)
	if !ok {
		return fmt.Sprintf("%s p%g withheld (n=%d, need %d)", c.Name, q*100, c.N(), Need(q))
	}
	return fmt.Sprintf("%s p%g = %.4f ms (n=%d)", c.Name, q*100, v, c.N())
}

// Need returns the fewest samples for which Percentile(q) is reportable.
func Need(q float64) int {
	n := 1
	for n-1-rank(q, n) < minBeyond {
		n++
	}
	return n
}

// rank is the 0-based nearest-rank index of the q-quantile of n samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}
