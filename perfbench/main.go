// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// One run builds nothing itself (run.sh builds cmd/serve and this harness),
// starts a fresh `serve -cache -data-dir DIR` process, drives it over
// loopback HTTP with one seeded workload, checks every recorded response
// against an in-process reference, and prints one JSON result line as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s,
// latency_p50_ms, goodput_frac, throughput_ops_s, rss_p90_mb); with -trace 1 they are the per-layer ones, taken from the
// server's /debug/vars counters, its /proc entry, and a traced in-process
// replay of the same inputs through the public calls of each layer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload analyze-mix --seed 1 --seconds 10 --trace 0
//
// The workloads, their fixed rates and latency limits live in config.json;
// README.md records why each was chosen and which layers it exercises.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fnpr/internal/obs"
)

//go:embed config.json
var configJSON []byte

// config is the benchmark's fixed settings (config.json).
type config struct {
	// SetupStarts is how many times a run starts serve to measure setup_s
	// (the last start serves the workload); the median is reported.
	SetupStarts int `json:"setup_starts"`
	// LagBound is the share of the open-loop phase by which the generator
	// may fall behind its schedule before the run is invalid.
	LagBound       float64          `json:"lag_bound"`
	AnalyzeMix     analyzeMixConfig `json:"analyze_mix"`
	AnalyzeSetEdit analyzeSetConfig `json:"analyzeset_edit"`
	Acceptance     campaignConfig   `json:"campaign_acceptance"`
	Atlas          campaignConfig   `json:"campaign_atlas"`
}

// workload is one seeded traffic mix. generate runs before any timing;
// drive is the timed phase; measure verifies the recorded responses and
// summarises them; replay pushes the same inputs through the library calls
// in-process under tr.
type workload interface {
	generate(seed int64, seconds float64) error
	drive(srv *server, seconds float64) error
	measure() (*measurement, error)
	replay(tr *tracer) (ops int, fidelity bool, err error)
	// counters lists the /debug/vars counters the workload must move and
	// the ones a bypassed layer must leave at zero.
	counters() (moved, zero []string)
	// durable reports whether the timed phase runs serve with -data-dir.
	durable() bool
}

// measurement is one run's verified end-to-end outcome.
type measurement struct {
	attempted, failed int
	mismatches        int
	// latency holds one sample per op of the latency phase, in ms; failed
	// ops are +Inf so they miss every limit.
	latency []float64
	// tail holds the samples behind the bench.latency_p90_ms and
	// bench.latency_p99_ms tails (latency itself on the service
	// workloads, job-status polls on the campaigns).
	tail    []float64
	limitMs float64
	// throughput is completed ops per second of the closed-loop phase.
	throughput float64
	// ops and jobs are the denominators of the per-op counter metrics.
	ops  float64
	jobs int
	// layer holds per-layer numbers measured by the client.
	layer map[string]float64
	// generator describes the load: loop type, rate or clients, and the
	// connections the clients opened.
	generator string
	// invalid, when set, says why the run does not measure what it claims.
	invalid string
	// failures counts failed ops by reason; details keeps the first
	// response seen for each reason.
	failures map[string]int
	details  map[string]string
}

// fail counts one failed op under reason ("status 422", "mismatch", ...),
// keeping the first body seen for the reason for the stderr summary.
func (m *measurement) fail(reason string, body []byte) {
	m.failed++
	if m.failures == nil {
		m.failures, m.details = map[string]int{}, map[string]string{}
	}
	if m.failures[reason] == 0 {
		m.details[reason] = string(body[:min(len(body), 200)])
	}
	m.failures[reason]++
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name: analyze-mix, analyzeset-edit, campaign-acceptance or campaign-atlas")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics (traced replay), 0 the end-to-end ones")
		serveB  = flag.String("serve", "", "path of the serve binary")
		outDir  = flag.String("out", ".bench_build", "directory for data dirs and span files")
	)
	flag.Parse()
	if *serveB == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("usage: perfbench -serve BIN --workload NAME --seed N --seconds S --trace 0|1")
	}
	var cfg config
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		return fmt.Errorf("config.json: %w", err)
	}
	clients := runtime.NumCPU()
	var w workload
	switch *name {
	case "analyze-mix":
		w = &analyzeMix{cfg: cfg.AnalyzeMix, clients: clients, lagBound: cfg.LagBound}
	case "analyzeset-edit":
		w = &analyzeSetEdit{cfg: cfg.AnalyzeSetEdit}
	case "campaign-acceptance":
		w = &campaign{kind: "acceptance", cfg: cfg.Acceptance, workers: clients}
	case "campaign-atlas":
		w = &campaign{kind: "atlas", cfg: cfg.Atlas, workers: clients}
	default:
		return fmt.Errorf("unknown workload %q", *name)
	}
	phase := time.Now()
	step := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s in %.2fs\n", *name, what, time.Since(phase).Seconds())
		phase = time.Now()
	}
	if err := w.generate(*seed, *seconds); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	step("generated inputs")

	runDir, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	var setups []float64
	var srv *server
	for i := 0; i < cfg.SetupStarts; i++ {
		s, setup, err := startServer(*serveB, filepath.Join(runDir, fmt.Sprintf("data%d", i)), w.durable())
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		if i == cfg.SetupStarts-1 {
			srv = s
			break
		}
		// Only the set-up time of these starts is wanted; they may not
		// have installed their signal handlers yet, so no drain.
		s.kill()
	}
	defer srv.kill()

	before, err := srv.sample()
	if err != nil {
		return err
	}
	stopRSS := srv.watchRSS()
	steal0, total0 := cpuSteal()
	err = w.drive(srv, *seconds)
	steal1, total1 := cpuSteal()
	rss := stopRSS()
	if err != nil {
		return err
	}
	stealFrac := ratio(steal1-steal0, total1-total0)
	fmt.Fprintf(os.Stderr, "perfbench: %s machine-wide CPU steal %.2f%% during the timed phase\n", *name, 100*stealFrac)
	after, err := srv.sample()
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	step("started serve and ran the timed phase")

	m, err := w.measure()
	if err != nil {
		return err
	}
	step("verified outputs")
	fmt.Fprintf(os.Stderr, "perfbench: %s generator: %s\n", *name, m.generator)
	correct := m.mismatches == 0
	// An invalid run still answered correctly: it is marked on standard
	// error and by bench.run_valid, not by correct.
	if m.invalid != "" {
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", m.invalid)
	}
	moved, zero := w.counters()
	if err := checkCounters(before.vars, after.vars, moved, zero); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: counter check failed:", err)
		correct = false
	}
	for reason, n := range m.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed ops: %s, first: %q\n", n, reason, m.details[reason])
	}

	var metrics map[string]metric
	if *trace == 0 {
		metrics = endToEnd(m, setups, percentile(rss, 0.9))
	} else {
		layers := counterLayers(before, after, m)
		layers["runtime.vmhwm_mb"] = float64(after.hwmKB) / 1024
		layers["bench.steal_frac"] = stealFrac
		layers["bench.run_valid"] = 1
		if m.invalid != "" {
			layers["bench.run_valid"] = 0
		}
		layers["bench.latency_p90_ms"] = finite(chunked(m.tail, 0.90))
		layers["bench.latency_p99_ms"] = finite(chunked(m.tail, 0.99))
		if c, ok := w.(*campaign); ok {
			extra, err := c.probeDurable(*serveB, filepath.Join(runDir, "durable"))
			if err != nil {
				return err
			}
			for k, v := range extra {
				layers[k] = v
			}
			if extra != nil {
				step("measured the durable job store")
			}
		}
		fidelity, err := replayLayers(w, *name, filepath.Join(*outDir, "spans-"+*name+".tsv"), layers)
		if err != nil {
			return err
		}
		step("replayed untraced and traced")
		if !fidelity {
			fmt.Fprintln(os.Stderr, "perfbench: replay does not reproduce the server's output; per-layer numbers invalid")
			correct = false
		}
		metrics = map[string]metric{}
		for _, d := range perLayerCatalog {
			metrics[d.name] = metric{Value: finite(layers[d.name]), Unit: d.unit}
		}
	}
	return printResult(result{Correct: correct, Attempted: m.attempted, Failed: m.failed, Metrics: metrics})
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(r result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// endToEnd derives the user-visible metrics of one run.
func endToEnd(m *measurement, setups []float64, rssP90KB float64) map[string]metric {
	good := 0
	for _, v := range m.latency {
		if v <= m.limitMs {
			good++
		}
	}
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"latency_p50_ms":   {finiteOr(chunked(m.latency, 0.50), m.limitMs), "ms"},
		"goodput_frac":     {float64(good) / math.Max(1, float64(len(m.latency))), "frac"},
		"throughput_ops_s": {m.throughput, "1/s"},
		"rss_p90_mb":       {rssP90KB / 1024, "MB"},
	}
}

// replayLayers runs the workload's in-process replay untraced, traced and
// untraced again, writes the traced spans to spanPath, and adds the traced
// self times and the bench.* validity numbers to layers. The overhead is
// taken against the mean of the two untraced runs, so warm-up does not
// favour either side. It reports replay fidelity.
func replayLayers(w workload, name, spanPath string, layers map[string]float64) (bool, error) {
	obs.Enable() // the server enables its hot-path counters too
	timed := func(tr *tracer) (time.Duration, int, bool, error) {
		start := time.Now()
		ops, fidelity, err := w.replay(tr)
		return time.Since(start), ops, fidelity, err
	}
	plain1, _, _, err := timed(&tracer{})
	if err != nil {
		return false, fmt.Errorf("untraced replay: %w", err)
	}
	traced := newTracer()
	withSpans, ops, fidelity, err := timed(traced)
	if err != nil {
		return false, fmt.Errorf("traced replay: %w", err)
	}
	plain2, _, _, err := timed(&tracer{})
	if err != nil {
		return false, fmt.Errorf("untraced replay: %w", err)
	}
	for k, v := range traced.layerMetrics() {
		layers[k] = v
	}
	layers["bench.trace_overhead_frac"] = 2*withSpans.Seconds()/(plain1+plain2).Seconds() - 1
	fmt.Fprintf(os.Stderr, "perfbench: %s replayed %d ops\n", name, ops)
	layers["bench.replay_fidelity"] = 0
	if fidelity {
		layers["bench.replay_fidelity"] = 1
	}
	return fidelity, traced.write(spanPath, name)
}

// chunk is the sample count behind one percentile estimate: ten samples
// lie beyond its p99.
const chunk = 1000

// chunked splits xs, in arrival order, into runs of chunk samples (the
// remainder joins the last run) and returns the median of the runs'
// p-quantiles. Slow requests come in bursts — one stall of the shared
// machine delays every request due while it lasts — so a quantile over a
// whole run swings with how many stalls fell into it; the median over
// runs is the quantile a typical stretch of the run sees.
func chunked(xs []float64, p float64) float64 {
	if len(xs) < 2*chunk {
		return percentile(xs, p)
	}
	var qs []float64
	for i := 0; i+chunk <= len(xs); i += chunk {
		end := i + chunk
		if len(xs)-end < chunk {
			end = len(xs)
		}
		qs = append(qs, percentile(xs[i:end], p))
	}
	return median(qs)
}

// percentile is the nearest-rank p-quantile of xs; NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// finiteOr replaces a non-finite statistic (a percentile that landed on a
// failed op) with 10× the workload's latency limit: a failed op misses the
// limit, and the JSON result cannot carry +Inf.
func finiteOr(v, limit float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 10 * limit
	}
	return v
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// checkCounters asserts that every required /debug/vars counter exists and
// moved, and every counter of a bypassed layer stayed at zero — a renamed
// counter must fail the run, never read as zero.
func checkCounters(before, after obs.Snapshot, moved, zero []string) error {
	var problems []string
	for _, name := range moved {
		v, ok := after.Counters[name]
		if !ok {
			problems = append(problems, name+" missing from /debug/vars")
		} else if v-before.Counters[name] <= 0 {
			problems = append(problems, name+" did not move")
		}
	}
	for _, name := range zero {
		if d := after.Counters[name] - before.Counters[name]; d != 0 {
			problems = append(problems, fmt.Sprintf("%s moved by %d on a workload that bypasses it", name, d))
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}
