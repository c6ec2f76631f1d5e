package main

import "omptune/internal/apps"

// metricDef names one metric of the benchmark. The names are the contract
// between this program, BENCHMARK.json and every later PR's claims; the
// smoke test checks that the three agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// The four workloads, in the order -agree runs them.
var workloadNames = []string{"paper_pipeline", "search_tune", "measured_kernels", "runtime_overheads"}

// endToEnd is reported by every workload on an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"allocs_per_work", "count", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by every workload on a traced run; a metric reads 0
// on a workload that does not exercise its layer.
var perLayer = buildPerLayer()

// metricNames holds every name of the two tables.
var metricNames = func() map[string]bool {
	names := map[string]bool{}
	for _, d := range endToEnd {
		names[d.name] = true
	}
	for _, d := range perLayer {
		names[d.name] = true
	}
	return names
}()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// paper_pipeline
		{name: "core.sweep_s", unit: "s", better: "lower"},
		{name: "dataset.write_csv_s", unit: "s", better: "lower"},
		{name: "dataset.read_csv_s", unit: "s", better: "lower"},
		{name: "report.tables_s", unit: "s", better: "lower"},
		{name: "report.questions_s", unit: "s", better: "lower"},
		{name: "report.q3_s", unit: "s", better: "lower"},
		{name: "report.violins_s", unit: "s", better: "lower"},
		{name: "report.fig2_s", unit: "s", better: "lower"},
		{name: "report.fig3_s", unit: "s", better: "lower"},
		{name: "report.fig4_s", unit: "s", better: "lower"},
		{name: "ml.fit_logistic_s", unit: "s", better: "lower"},
		{name: "stats.wilcoxon_us", unit: "us", better: "lower"},
		{name: "sim.evaluate_ns", unit: "ns", better: "lower"},
		{name: "env.space_build_ms", unit: "ms", better: "lower"},
		{name: "core.sweep_allocs_per_sample", unit: "count", better: "lower"},
		{name: "report.allocs_per_pass", unit: "count", better: "lower"},
		{name: "dataset.csv_bytes", unit: "bytes", better: "lower"},
		{name: "core.checkpoint_write_s", unit: "s", better: "lower"},
		{name: "core.checkpoint_resume_s", unit: "s", better: "lower"},
		// search_tune
		{name: "core.search_us_per_eval.surrogate", unit: "us", better: "lower"},
		{name: "core.search_us_per_eval.greedy", unit: "us", better: "lower"},
		{name: "core.search_us_per_eval.restart", unit: "us", better: "lower"},
		{name: "core.search_us_per_eval.anneal", unit: "us", better: "lower"},
		{name: "core.search_us_per_eval.random", unit: "us", better: "lower"},
		{name: "ml.forest_fit_ms", unit: "ms", better: "lower"},
		{name: "ml.forest_predict_us", unit: "us", better: "lower"},
		{name: "core.evalcache_hit_ns", unit: "ns", better: "lower"},
		{name: "core.evalcache_hit_share", unit: "share", better: "higher"},
		{name: "core.search_allocs_per_eval", unit: "count", better: "lower"},
		{name: "core.search_best_frac_geomean", unit: "share", better: "higher"},
	}
	// measured_kernels
	for _, a := range apps.All() {
		defs = append(defs, metricDef{name: "apps.kernel_ms." + a.Name, unit: "ms", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "apps.speedup_geomean", unit: "ratio", better: "higher"},
		metricDef{name: "openmp.steal_share", unit: "share", better: "lower"},
		metricDef{name: "openmp.sleeps_per_region", unit: "count", better: "lower"},
		metricDef{name: "openmp.new_close_us", unit: "us", better: "lower"},
		metricDef{name: "measure.harness_share", unit: "share", better: "lower"},
		metricDef{name: "env.runtime_options_us", unit: "us", better: "lower"},
		metricDef{name: "openmp.regions", unit: "count", better: "lower"},
		metricDef{name: "openmp.chunks", unit: "count", better: "lower"},
		metricDef{name: "openmp.tasks_run", unit: "count", better: "lower"},
		metricDef{name: "apps.checksum_failures", unit: "count", better: "lower"},
	)
	// runtime_overheads
	for _, c := range constructs {
		defs = append(defs, metricDef{name: "openmp." + c.name + "_ns", unit: "ns", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "openmp.park_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "openmp.allocs_per_op.parallel_park", unit: "count", better: "lower"},
		metricDef{name: "openmp.allocs_per_op.barrier_park", unit: "count", better: "lower"},
		metricDef{name: "openmp.allocs_per_op.reduce_tree", unit: "count", better: "lower"},
		metricDef{name: "openmp.allocs_per_op.task_spawn", unit: "count", better: "lower"},
		metricDef{name: "openmp.trace_on_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "openmp.profile_on_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "openmp.metrics_on_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "trace.dropped", unit: "count", better: "lower"},
		// every workload
		metricDef{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
		metricDef{name: "trace_overhead_share", unit: "share", better: "lower"},
		metricDef{name: "host.pair_ratio", unit: "ratio", better: "lower"},
	)
	return defs
}
