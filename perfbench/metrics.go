package main

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units (the tests hold the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the simulator sees, reported with tracing
// off on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},           // one whole job (repro: the cold reproduction)
	{"cell_p50_ms", "ms"},     // per-cell wall time, median
	{"cell_p95_ms", "ms"},     // per-cell wall time, 95th percentile
	{"accesses_per_s", "1/s"}, // simulated accesses per host second
	{"setup_s", "s"},          // process start + inputs + machine, before the first event
	{"peak_rss_mb", "MiB"},    // VmHWM of the process that ran the job
	{"pass_ratio", "ratio"},   // 1 - fail_ratio
	{"sim_cycles", "cycles"},  // simulated execution cycles
}

// selfLayers are the CPU-profile buckets every sample is attributed to
// (see attribute). Their self times sum to the profile total.
var selfLayers = []string{
	"workloads", "trace",
	"core.l1", "core.dir", "core.msg", "core.cpu", "core.system", "core.pdes", "core.other",
	"engine", "noc", "cache", "predictor", "directory", "mem", "stats",
	"runner", "harness", "obs.latency", "obs.attrib", "obs.other",
	"repo.other", "bench",
	"runtime.gc", "runtime.other", "other",
}

// selfMetric names a bucket's self-time metric. The runtime buckets
// keep the shorter names runtime.gc_s and runtime.other_s.
func selfMetric(layer string) string {
	if layer == "runtime.gc" || layer == "runtime.other" {
		return layer + "_s"
	}
	return layer + ".self_s"
}

// perLayer is what the traced run reports: timed calls into each layer,
// the layers' own counters, and the CPU-profile split.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"process.start_s", "s"},
		{"workloads.gen_s", "s"},
		{"core.build_s", "s"},
		{"core.run_s", "s"},
		{"core.l1.miss_rate", "ratio"},
		{"core.l1.upgrade_misses", "count"},
		{"core.l1.miss_latency_cycles", "cycles"},
		{"core.dir.invalidations", "count"},
		{"core.dir.nack_bytes", "bytes"},
		{"core.pdes.rounds", "count"},
		{"core.pdes.events_per_round", "events"},
		{"core.pdes.barrier_wait_s", "s"},
		{"core.pdes.bookkeeping_s", "s"},
		{"engine.events", "count"},
		{"engine.events_per_access", "events"},
		{"engine.zero_delay_frac", "ratio"},
		{"engine.queue_high_water", "events"},
		{"engine.far_pushes", "count"},
		{"engine.pop_refusals", "count"},
		{"noc.messages_per_access", "msgs"},
		{"noc.flits_per_message", "flits"},
		{"noc.flit_hops", "count"},
		{"cache.evictions", "count"},
		{"predictor.used_frac", "ratio"},
		{"runner.cell_busy_s", "s"},
		{"runner.idle_frac", "ratio"},
		{"harness.render_s", "s"},
		{"runtime.allocs_per_access", "allocs"},
		{"runtime.gc_cycles", "count"},
		{"cpuprof.total_s", "s"},
		{"cpuprof.samples", "count"},
		{"trace_overhead_frac", "ratio"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{selfMetric(l), "s"})
	}
	return defs
}()

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
