package main

// layerMetricDef names one per-layer metric and its unit. Sources: (c)
// /debug/vars counter deltas over the timed phase, (p) the serve process's
// /proc entry, (t) self time from the traced replay, (g) the generator.
type layerMetricDef struct{ name, unit string }

// perLayerCatalog is every per-layer metric a -trace 1 run prints, in
// BENCHMARK.json order. Metrics of a layer a workload bypasses read 0.
var perLayerCatalog = []layerMetricDef{
	{"server.handler_ms", "ms"},         // (c) mean of server.<endpoint>.latency_ns
	{"server.outside_handler_ms", "ms"}, // client mean minus handler mean
	{"server.rejected_frac", "frac"},    // (c) server.rejected per request
	{"server.decode_us", "us"},          // (t)
	{"server.encode_us", "us"},          // (t)
	{"server.req_bytes", "B"},           // (g) mean request body
	{"server.resp_bytes", "B"},          // (g) mean response body
	{"server.submit_ms", "ms"},          // (g) campaign POST to 202
	{"spec.build_us", "us"},             // (t)
	{"delay.build_us", "us"},            // (t) campaign-side curve construction
	{"delay.index.builds_per_op", "count"},
	{"delay.index.queries_per_op", "count"},
	{"delay.index.recheck_frac", "frac"},
	{"delay.index.build_us", "us"},
	{"delay.scan.queries_per_op", "count"},
	{"core.analyze_hit_us", "us"},  // (t)
	{"core.analyze_miss_us", "us"}, // (t)
	{"core.alg1.runs_per_op", "count"},
	{"core.alg1.iterations_per_run", "count"},
	{"core.eq4.iterations_per_run", "count"},
	{"memo.hit_frac", "frac"},
	{"memo.entries", "count"},
	{"memo.bytes", "B"},
	{"memo.evictions", "count"},
	{"eval.analyzeset_us", "us"}, // (t)
	{"eval.trial_us", "us"},      // (t) inclusive
	{"eval.atlas_func_us", "us"}, // (t) inclusive
	{"sweep.point_us", "us"},
	{"sweep.worker.utilization_pct", "pct"},
	{"sweep.worker.wait_ms", "ms"},
	{"sweep.analyzeset.recomputed_frac", "frac"},
	{"sweep.qshare.seeded_frac", "frac"},
	{"synth.subrand_us", "us"}, // (t)
	{"synth.taskset_us", "us"}, // (t)
	{"synth.draw_us", "us"},    // (t)
	{"npr.assignq_us", "us"},   // (t)
	{"sched.analyze_us.nodelay", "us"},
	{"sched.analyze_us.alg1", "us"},
	{"sched.analyze_us.limited", "us"},
	{"sched.analyze_us.eq4", "us"},
	{"sched.rta.iterations_per_trial", "count"},
	{"sched.rta.solver.iterations_per_trial", "count"},
	{"sched.rta.solver.cuts_per_trial", "count"},
	{"sched.rta.solver.fallbacks_per_trial", "count"},
	{"sched.cprime.computed_per_trial", "count"},
	{"exact.delay_us", "us"}, // (t)
	{"exact.states_per_func", "count"},
	{"exact.prunes_per_func", "count"},
	{"exact.merges_per_func", "count"},
	{"journal.appends_per_job", "count"},
	{"journal.syncs_per_job", "count"},
	{"journal.durable_job_ms", "ms"},  // (g) one job against serve -data-dir
	{"journal.durable_slowdown", "x"}, // durable_job_ms over the timed phase's p50
	{"runtime.cpu_ms_per_op", "ms"},   // (p) utime+stime
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_1k_ops", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.vmhwm_mb", "MB"},     // (p) VmHWM at the end of the timed phase
	{"bench.latency_p90_ms", "ms"}, // latency tails: per-layer, so unbounded
	{"bench.latency_p99_ms", "ms"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.gen_conns", "count"},
	{"bench.run_valid", "bool"},  // 0 when the generator fell behind or over-connected
	{"bench.steal_frac", "frac"}, // machine-wide CPU steal during the timed phase
	{"bench.repeat_frac", "frac"},
	{"bench.replay_fidelity", "bool"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.span_coverage_frac", "frac"},
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of /proc/<pid>/stat
// utime and stime.
const clockTicksPerSecond = 100

// counterLayers derives the (c) and (p) per-layer metrics from two server
// samples bracketing the timed phase, and merges in the client-side ones.
func counterLayers(before, after sample, m *measurement) map[string]float64 {
	c := func(name string) float64 {
		return float64(after.vars.Counters[name] - before.vars.Counters[name])
	}
	hist := func(name string) (count, sum float64) {
		a, b := after.vars.Histograms[name], before.vars.Histograms[name]
		return float64(a.Count - b.Count), float64(a.Sum - b.Sum)
	}
	mean := func(name string) float64 {
		n, s := hist(name)
		return ratio(s, n)
	}
	ops := m.ops
	out := map[string]float64{}
	for k, v := range m.layer {
		out[k] = v
	}
	var handlerNs, requests float64
	for _, ep := range []string{"analyze", "analyzeset", "campaign"} {
		n, s := hist("server." + ep + ".latency_ns")
		handlerNs += s
		requests += n
	}
	out["server.handler_ms"] = ratio(handlerNs, requests) / 1e6
	if client, ok := m.layer["client_mean_ms"]; ok {
		out["server.outside_handler_ms"] = client - out["server.handler_ms"]
		delete(out, "client_mean_ms")
	}
	out["server.rejected_frac"] = ratio(c("server.rejected"), requests)

	out["delay.index.builds_per_op"] = ratio(c("delay.index.builds"), ops)
	out["delay.index.queries_per_op"] = ratio(c("delay.index.queries"), ops)
	out["delay.index.recheck_frac"] = ratio(c("delay.index.rechecks"), c("delay.index.queries"))
	out["delay.index.build_us"] = mean("delay.index.build_ns") / 1e3
	out["delay.scan.queries_per_op"] = ratio(c("delay.scan.queries"), ops)

	out["core.alg1.runs_per_op"] = ratio(c("core.alg1.runs"), ops)
	out["core.alg1.iterations_per_run"] = ratio(c("core.alg1.iterations"), c("core.alg1.runs"))
	out["core.eq4.iterations_per_run"] = ratio(c("core.eq4.iterations"), c("core.eq4.runs"))

	out["memo.hit_frac"] = ratio(c("memo.hits"), c("memo.hits")+c("memo.misses"))
	out["memo.entries"] = after.vars.Gauges["memo.entries"]
	out["memo.bytes"] = after.vars.Gauges["memo.bytes"]
	out["memo.evictions"] = c("memo.evictions")

	out["sweep.point_us"] = mean("sweep.point.ns") / 1e3
	out["sweep.worker.utilization_pct"] = mean("sweep.worker.utilization_pct")
	out["sweep.worker.wait_ms"] = mean("sweep.worker.wait_ns") / 1e6
	out["sweep.analyzeset.recomputed_frac"] = ratio(c("sweep.analyzeset.recomputed"),
		c("sweep.analyzeset.recomputed")+c("sweep.analyzeset.reused"))
	out["sweep.qshare.seeded_frac"] = ratio(c("sweep.qshare.seeded"), c("sweep.qshare.seeded")+c("sweep.qshare.cold"))

	out["sched.rta.iterations_per_trial"] = ratio(c("sched.rta.iterations"), ops)
	out["sched.rta.solver.iterations_per_trial"] = ratio(c("sched.rta.solver.iterations"), ops)
	out["sched.rta.solver.cuts_per_trial"] = ratio(c("sched.rta.solver.cuts"), ops)
	out["sched.rta.solver.fallbacks_per_trial"] = ratio(c("sched.rta.solver.fallbacks"), ops)
	out["sched.cprime.computed_per_trial"] = ratio(c("sched.cprime.computed"), ops)

	out["exact.states_per_func"] = ratio(c("exact.states"), ops)
	out["exact.prunes_per_func"] = ratio(c("exact.prunes"), ops)
	out["exact.merges_per_func"] = ratio(c("exact.merges"), ops)

	jobs := float64(m.jobs)
	out["journal.appends_per_job"] = ratio(c("journal.appends"), jobs)
	out["journal.syncs_per_job"] = ratio(c("journal.syncs"), jobs)

	out["runtime.cpu_ms_per_op"] = ratio(float64(after.cpuTicks-before.cpuTicks)*1e3/clockTicksPerSecond, ops)
	out["runtime.allocs_per_op"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops)
	out["runtime.alloc_bytes_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops)
	out["runtime.gc_cycles_per_1k_ops"] = ratio(float64(after.mem.NumGC-before.mem.NumGC)*1e3, ops)
	out["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	return out
}

// ratio is a/b, 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Counter groups for the bypass checks.
var (
	exactCounters    = []string{"exact.states", "exact.runs"}
	schedCounters    = []string{"sched.rta.iterations", "sched.cprime.computed"}
	memoCounters     = []string{"memo.hits", "memo.misses", "memo.puts"}
	campaignCounters = []string{"campaign.trials", "journal.appends"}
	setCounters      = []string{"sweep.analyzeset.recomputed", "sweep.analyzeset.reused"}
)

func concat(groups ...[]string) []string {
	var out []string
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
