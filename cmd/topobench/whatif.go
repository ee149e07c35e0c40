package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"dctopo/expt"
	"dctopo/tub"
)

// cmdWhatIf answers incremental failure queries: build the what-if
// engine once, then report the damaged TUB for one link (-link u:v),
// one switch (-switch x), or every link (-all, the default). The sweep
// is the whatif experiment: its critical-link ranking and degradation
// CDF tables, plus the wall time. Per-query cost is the distance-repair
// cone plus a warm rematch, not a fresh TUB evaluation.
func cmdWhatIf(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	var tf topoFlags
	var rf runFlags
	tf.register(fs)
	rf.register(fs)
	link := fs.String("link", "", "query one link removal, as u:v switch ids")
	sw := fs.Int("switch", -1, "query one switch removal by id")
	fs.Bool("all", false, "sweep every link and rank by TUB drop (default when no -link/-switch)")
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
	stop, err := rf.profile()
	if err != nil {
		return err
	}
	defer stop()
	if *link == "" && *sw < 0 {
		start := time.Now()
		res, err := expt.RunWhatIf(expt.WhatIfParams{
			Family: expt.Family(tf.family), Switches: tf.switches, Radix: tf.radix,
			Servers: tf.servers, Seed: tf.seed, Top: *top, Sample: *sample,
		}, expt.RunOptions{Obs: o})
		if err != nil {
			return err
		}
		for _, tb := range res.Tables() {
			fmt.Fprintln(w, tb.String())
		}
		fmt.Fprintf(w, "engine built and %d links swept in %v\n", res.Links, time.Since(start).Round(time.Millisecond))
		return nil
	}
	t, err := tf.build(o)
	if err != nil {
		return err
	}
	start := time.Now()
	eng, err := tub.NewWhatIf(t, tub.WhatIfOptions{Obs: o})
	if err != nil {
		return err
	}
	base := eng.Base()
	fmt.Fprintf(w, "%s\nbase TUB = %.6f   (engine built in %v)\n",
		t, base.Bound, time.Since(start).Round(time.Millisecond))

	var what string
	var q *tub.QueryResult
	qs := time.Now()
	if *link != "" {
		us, vs, ok := strings.Cut(*link, ":")
		u, uerr := strconv.Atoi(us)
		v, verr := strconv.Atoi(vs)
		if !ok || uerr != nil || verr != nil {
			return fmt.Errorf("-link wants u:v switch ids (got %q)", *link)
		}
		what = fmt.Sprintf("remove link %d-%d", u, v)
		q, err = eng.QueryLink(u, v)
	} else {
		what = fmt.Sprintf("remove switch %d", *sw)
		q, err = eng.QuerySwitch(*sw)
	}
	if err != nil {
		return err
	}
	if q.Disconnected {
		fmt.Fprintf(w, "%s: DISCONNECTS the fabric (TUB -> 0)\n", what)
	} else {
		fmt.Fprintf(w, "%s: TUB = %.6f   drop = %.6f   (mode=%s rows=%d frontier=%d)\n",
			what, q.Bound, base.Bound-q.Bound, q.Mode, q.ChangedRows, q.Frontier)
	}
	fmt.Fprintf(w, "query time: %v\n", time.Since(qs).Round(time.Microsecond))
	return nil
}
