package main

// metricDef names one metric of the result line. BENCHMARK.json lists the
// same names and units; TestMetricsMatchBenchmarkJSON keeps them in step.
type metricDef struct{ name, unit string }

// endToEnd is what every untraced run prints. p50_ms is the median of
// the workload's primary op: one Fig. 3 ground truth (gap-jf300), one
// what-if link query over HTTP (serve-jf1k). ops_per_s is printed in the
// summary but not here: with one client in a closed loop it is the
// inverse of the mean latency, and the mean moves more with the host
// than the median (DESIGN.md has the figures).
var endToEnd = []metricDef{
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is what every traced run prints. A layer a workload skips
// reads 0 there; DESIGN.md maps each metric to the end-to-end metric it
// should move.
var perLayer = []metricDef{
	{"topo.build_ms", "ms"},
	{"trace.overhead_ms", "ms"},

	{"tub.bound_ms", "ms"},
	{"tub.dist_ms", "ms"},
	{"tub.dist_cpu_ratio", "ratio"},
	{"tub.dist_bytes", "B"},
	{"tub.match_ms", "ms"},
	{"tub.match_cpu_ratio", "ratio"},
	{"tub.match.bids", "count"},
	{"tub.match.rounds", "count"},
	{"tub.match.phases", "count"},
	{"tub.residual_ms", "ms"},

	{"mcf.ksp_ms", "ms"},
	{"mcf.paths", "count"},
	{"mcf.gk_ms", "ms"},
	{"mcf.gk_cpu_ratio", "ratio"},
	{"gap.residual_ms", "ms"},

	{"whatif.build_ms", "ms"},
	{"whatif.query_p50_ms", "ms"},
	{"whatif.query_p99_ms", "ms"},
	{"whatif.mode.warm", "count"},
	{"whatif.mode.unchanged", "count"},
	{"whatif.mode.trunk", "count"},
	{"whatif.mode.coldmatch", "count"},
	{"whatif.mode.disconnected", "count"},
	{"whatif.changed_rows", "count"},
	{"whatif.frontier", "count"},
	{"serve.http_ms", "ms"},
	{"serve.whatif_p50_ms", "ms"},
	{"serve.whatif_p99_ms", "ms"},
	{"serve.sweep_p50_ms", "ms"},
	{"expt.execute_ms", "ms"},
	{"expt.store.put_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.jobs.submitted", "count"},
	{"serve.jobs.executed", "count"},
	{"serve.jobs.done", "count"},
	{"serve.jobs.cachehits", "count"},
	{"serve.jobs.rejected", "count"},
	{"serve.jobs.failed", "count"},
}
