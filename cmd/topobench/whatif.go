package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"dctopo/tub"
)

// cmdWhatIf answers incremental failure queries: build the what-if
// engine once, then report the damaged TUB for one link (-link u:v),
// one switch (-switch x), or every link (-all, the default), ranked by
// impact. Per-query cost is the distance-repair cone plus a warm
// rematch, not a fresh TUB evaluation.
func cmdWhatIf(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	var tf topoFlags
	var rf runFlags
	tf.register(fs)
	rf.register(fs)
	link := fs.String("link", "", "query one link removal, as u:v switch ids")
	sw := fs.Int("switch", -1, "query one switch removal by id")
	all := fs.Bool("all", false, "sweep every link and rank by TUB drop (default when no -link/-switch)")
	top := fs.Int("top", 10, "ranking rows to print for -all (0 = all)")
	sample := fs.Int("sample", 1, "keep every sample-th link in -all sweeps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *link != "" && *sw >= 0 {
		return fmt.Errorf("-link and -switch are mutually exclusive")
	}
	o, done, err := rf.observe()
	if err != nil {
		return err
	}
	defer done()
	t, err := tf.build(o)
	if err != nil {
		return err
	}
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()

	start := time.Now()
	eng, err := tub.NewWhatIf(t, tub.WhatIfOptions{Obs: o})
	if err != nil {
		return err
	}
	base := eng.Base()
	fmt.Fprintf(w, "%s\nbase TUB = %.6f   (engine built in %v)\n",
		t, base.Bound, time.Since(start).Round(time.Millisecond))

	printQuery := func(what string, q *tub.QueryResult) {
		if q.Disconnected {
			fmt.Fprintf(w, "%s: DISCONNECTS the fabric (TUB -> 0)\n", what)
			return
		}
		fmt.Fprintf(w, "%s: TUB = %.6f   drop = %.6f   (mode=%s rows=%d frontier=%d)\n",
			what, q.Bound, base.Bound-q.Bound, q.Mode, q.ChangedRows, q.Frontier)
	}

	switch {
	case *link != "":
		us, vs, ok := strings.Cut(*link, ":")
		u, uerr := strconv.Atoi(us)
		v, verr := strconv.Atoi(vs)
		if !ok || uerr != nil || verr != nil {
			return fmt.Errorf("-link wants u:v switch ids (got %q)", *link)
		}
		qs := time.Now()
		q, err := eng.QueryLink(u, v)
		if err != nil {
			return err
		}
		printQuery(fmt.Sprintf("remove link %d-%d", u, v), q)
		fmt.Fprintf(w, "query time: %v\n", time.Since(qs).Round(time.Microsecond))
	case *sw >= 0:
		qs := time.Now()
		q, err := eng.QuerySwitch(*sw)
		if err != nil {
			return err
		}
		printQuery(fmt.Sprintf("remove switch %d", *sw), q)
		fmt.Fprintf(w, "query time: %v\n", time.Since(qs).Round(time.Microsecond))
	default:
		_ = *all // -all is the default action; the flag exists for explicitness
		qs := time.Now()
		impacts, err := eng.SweepLinks(*sample)
		if err != nil {
			return err
		}
		el := time.Since(qs)
		ranked := tub.RankByDrop(impacts)
		n := *top
		if n <= 0 || n > len(ranked) {
			n = len(ranked)
		}
		fmt.Fprintf(w, "swept %d links in %v (%v/link amortized); top %d by TUB drop:\n",
			len(impacts), el.Round(time.Millisecond),
			(el / time.Duration(max(1, len(impacts)))).Round(time.Microsecond), n)
		fmt.Fprintf(w, "%-12s %4s  %-12s %-10s %5s %8s  %s\n",
			"link", "cap", "TUB after", "drop", "rows", "frontier", "mode")
		for _, im := range ranked[:n] {
			after := fmt.Sprintf("%.6f", im.Bound)
			if im.Disconnected {
				after = "disconnected"
			}
			fmt.Fprintf(w, "%-12s %4d  %-12s %-10.6f %5d %8d  %s\n",
				fmt.Sprintf("%d-%d", im.U, im.V), im.Capacity, after, im.Drop,
				im.ChangedRows, im.Frontier, im.Mode)
		}
	}
	return nil
}
