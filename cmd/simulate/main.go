// Command simulate runs the floating-NPR scheduler simulator on built-in
// scenarios and prints traces, timelines and bound-vs-observed comparisons.
//
// Scenarios:
//
//	-scenario fig2     the Figure 2 counter-example (naive bound vs runs)
//	-scenario basic    a three-task FP set under all three preemption modes
//	-scenario bounds   randomized FNPR runs compared against Algorithm 1
//	-scenario edf      an EDF set with Q assigned by the Bertogna-Baruah
//	                   demand-bound analysis of package npr
//	-scenario montecarlo
//	                   the pooled Monte-Carlo campaign: simulate -trials
//	                   random jobsets over -workers goroutines and check the
//	                   Algorithm 1 bound dominates every job's observed delay
//	-scenario exact    the exact schedule-graph baseline: WCETs inflated by
//	                   each delay-accounting method (exact, Algorithm 1,
//	                   Equation 4) feed the schedule-graph exploration, and a
//	                   non-preemptive run cross-checks the BCRT/WCRT envelope
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"fnpr/internal/cli"
	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/eval"
	"fnpr/internal/exact"
	"fnpr/internal/guard"
	"fnpr/internal/journal"
	"fnpr/internal/npr"
	"fnpr/internal/sched"
	"fnpr/internal/sim"
	"fnpr/internal/synth"
	"fnpr/internal/task"
)

func main() {
	var (
		scenario = flag.String("scenario", "basic", "fig2, basic, bounds, edf, stats, montecarlo or exact")
		events   = flag.Bool("events", false, "dump the full event trace")
		svgPath  = flag.String("svg", "", "write an SVG Gantt chart of the basic scenario's floating-NPR run")
		trials   = flag.Int("trials", 2000, "montecarlo scenario: number of random jobsets to simulate")
	)
	limits := cli.Flags().SweepFlags()
	flag.Parse()
	g := limits.Guard()
	if limits.Journal != "" && *scenario != "bounds" {
		cli.Exit("simulate", cli.Usagef("-journal supports -scenario bounds only (got -scenario %s)", *scenario))
	}

	var err error
	switch *scenario {
	case "fig2":
		err = fig2()
	case "basic":
		err = basic(g, *events, *svgPath)
	case "bounds":
		err = bounds(g, limits)
	case "edf":
		err = edf(g, *events)
	case "stats":
		err = stats(g, limits.Seed)
	case "montecarlo":
		err = montecarlo(g, limits, *trials)
	case "exact":
		err = exactScenario(g, limits)
	default:
		err = cli.Usagef("unknown scenario %q", *scenario)
	}
	cli.Exit("simulate", err)
}

func fig2() error {
	rep, err := eval.Figure2()
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	return nil
}

func basic(g *guard.Ctx, events bool, svgPath string) error {
	ts := task.Set{
		{Name: "hi", C: 2, T: 10, Q: 1},
		{Name: "mid", C: 3, T: 25, Q: 2},
		{Name: "lo", C: 14, T: 60, Q: 4},
	}
	ts.AssignRateMonotonic()
	mid, err := delay.NewConstant(0.5, 3)
	if err != nil {
		return err
	}
	lo, err := delay.NewFrontLoaded(2, 0.2, 14)
	if err != nil {
		return err
	}
	fns := []delay.Function{nil, mid, lo}
	for _, mode := range []sim.Mode{sim.FullyPreemptive, sim.FloatingNPR, sim.NonPreemptive} {
		res, err := sim.RunCtx(g, sim.Config{
			Tasks: ts, Policy: sim.FixedPriority, Mode: mode,
			Horizon: 120, Delay: fns,
		})
		if err != nil {
			return err
		}
		fmt.Printf("=== %s ===\n", mode)
		fmt.Print(res.Summary())
		fmt.Println(res.Timeline(1.5))
		if svgPath != "" && mode == sim.FloatingNPR {
			f, err := os.Create(svgPath)
			if err != nil {
				return err
			}
			werr := res.WriteSVGTimeline(f, sim.SVGTimelineOptions{
				Title: "floating-NPR schedule",
			})
			f.Close()
			if werr != nil {
				return werr
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", svgPath)
		}
		if events {
			for _, e := range res.Events {
				fmt.Println(" ", e)
			}
		}
		fmt.Println()
	}
	return nil
}

// bounds runs the randomized soundness trials under the crash-safe batch
// runtime: with -journal each completed trial's output rows are checkpointed,
// and a -resume run replays them verbatim (byte-identical output) while
// recomputing only the trials the aborted run never finished.
func bounds(g *guard.Ctx, limits *cli.Limits) error {
	j, resume, err := limits.OpenJournal()
	if err != nil {
		return err
	}
	if j != nil {
		defer j.Close()
	}
	cli.Checkpoint(g, j)
	cache, err := limits.OpenCache()
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(limits.Seed))
	fmt.Println("Randomized FNPR runs: per-task observed worst delay vs Algorithm 1 bound")
	fmt.Printf("%6s %-8s %10s %14s %14s %8s\n", "trial", "task", "Q", "observed", "bound", "sound")
	for trial := 0; trial < 5; trial++ {
		// Inputs are drawn even for journaled trials, so the random
		// stream stays aligned with an uninterrupted run.
		n := 3
		ts := make(task.Set, 0, n)
		fns := make([]delay.Function, 0, n)
		for i := 0; i < n; i++ {
			c := 10 + r.Float64()*30
			maxD := 0.5 + r.Float64()*2
			q := maxD + 2 + r.Float64()*5
			ts = append(ts, task.Task{
				Name: fmt.Sprintf("t%d", i), C: c,
				T: c*2.5 + r.Float64()*120, Q: q, Prio: i,
			})
			fns = append(fns, synth.DelayFunction(r, c, maxD, 4))
		}
		key := fmt.Sprintf("trial:%d", trial)
		var lines []string
		if ok, err := journal.Get(resume, key, &lines); err != nil {
			return err
		} else if ok {
			for _, ln := range lines {
				fmt.Print(ln)
			}
			continue
		}
		res, err := sim.RunCtx(g, sim.Config{
			Tasks: ts, Policy: sim.FixedPriority, Mode: sim.FloatingNPR,
			Horizon: 3000, Delay: fns,
		})
		if err != nil {
			return err
		}
		for i := range ts {
			r, err := core.Analyze(g, fns[i], ts[i].Q, core.Options{Memo: cache})
			if err != nil {
				return err
			}
			sound := "yes"
			if res.Tasks[i].MaxDelayPerJob > r.TotalDelay+1e-9 {
				sound = "VIOLATED"
			}
			lines = append(lines, fmt.Sprintf("%6d %-8s %10.3f %14.3f %14.3f %8s\n",
				trial, ts[i].Name, ts[i].Q, res.Tasks[i].MaxDelayPerJob, r.TotalDelay, sound))
		}
		for _, ln := range lines {
			fmt.Print(ln)
		}
		if j != nil {
			if err := j.Append(key, lines); err != nil {
				return err
			}
		}
	}
	return nil
}

// montecarlo runs the pooled simulation campaign and fails (exit code 1)
// if any job's observed delay exceeded its Algorithm 1 bound — an empirical
// falsification harness for Theorem 1. Output depends only on -seed and
// -trials, never on -workers.
func montecarlo(g *guard.Ctx, limits *cli.Limits, trials int) error {
	p := eval.DefaultMonteCarloParams()
	p.Seed = limits.Seed
	p.Trials = trials
	p.Workers = limits.Workers
	p.Obs = g.Obs()
	rep, err := eval.MonteCarlo(g, p)
	if err != nil {
		return err
	}
	fmt.Println("Monte-Carlo Theorem 1 campaign: observed delay vs Algorithm 1 bound")
	fmt.Printf("  trials       %d\n", rep.Trials)
	fmt.Printf("  jobs         %d\n", rep.Jobs)
	fmt.Printf("  preemptions  %d\n", rep.Preemptions)
	fmt.Printf("  max paid     %.6f\n", rep.MaxPaid)
	fmt.Printf("  min slack    %.6f\n", rep.MinSlack)
	fmt.Printf("  violations   %d\n", rep.Violations)
	if rep.Violations > 0 {
		return fmt.Errorf("simulate: %d jobs exceeded their Algorithm 1 bound", rep.Violations)
	}
	return nil
}

// exactScenario demonstrates the exact schedule-graph baseline. The demo
// set's WCETs are inflated by each delay-accounting method (exact schedule
// graph, Algorithm 1, Equation 4); for every inflation the schedule-graph
// exploration computes the exact best/worst-case response-time envelope of
// the resulting non-preemptive set (execution times range over [C, C']),
// and a simulator run at C' cross-checks that no observed response exceeds
// the graph's WCRT. Because the execution intervals nest, the WCRT columns
// must be ordered exact <= Algorithm 1 <= Equation 4 for every task; the
// scenario fails loudly if they are not.
func exactScenario(g *guard.Ctx, limits *cli.Limits) error {
	ts := task.Set{
		{Name: "hi", C: 2, T: 10, Q: 2, Prio: 0},
		{Name: "mid", C: 4, T: 20, Q: 3, Prio: 1},
		{Name: "lo", C: 7, T: 40, Q: 4, Prio: 2},
	}
	// Back-loaded delay curves (cost climbs towards the end of the job) are
	// where Algorithm 1's point-selection bound is pessimistic and the exact
	// schedule graph pays off — cf. figures -fig atlas.
	mid, err := delay.NewPiecewise([]float64{0, 2, 3, 4}, []float64{0.2, 0.8, 1.2})
	if err != nil {
		return err
	}
	lo, err := delay.NewPiecewise([]float64{0, 3, 5, 7}, []float64{0.2, 1, 2})
	if err != nil {
		return err
	}
	fns := []delay.Function{nil, mid, lo}

	methods := []struct {
		name string
		opts sched.Options
	}{
		{"exact", sched.Options{Delay: fns, Method: sched.Exact, ExactStates: limits.States}},
		{"alg1", sched.Options{Delay: fns}},
		{"eq4", sched.Options{Delay: fns, Method: sched.Equation4}},
	}
	fmt.Println("Exact schedule-graph response times under per-method WCET inflation:")
	fmt.Printf("%-6s %-6s %9s %9s %9s %9s %7s\n",
		"method", "task", "C'", "BCRT", "WCRT", "observed", "sound")
	wcrts := make([][]float64, len(methods))
	for mi, m := range methods {
		r, err := sched.Analyze(g, ts, m.opts)
		if err != nil {
			return err
		}
		inflated := ts.Clone()
		for i := range inflated {
			inflated[i].BCET = ts[i].C
			inflated[i].C = r.EffectiveC[i]
		}
		sr, err := exact.ResponseTimes(g, inflated, exact.Options{MaxStates: limits.States})
		if err != nil {
			return err
		}
		wcrts[mi] = sr.WCRT
		hp, ok := inflated.Hyperperiod()
		if !ok {
			return fmt.Errorf("simulate: demo set has no rational hyperperiod")
		}
		res, err := sim.RunCtx(g, sim.Config{
			Tasks: inflated, Policy: sim.FixedPriority, Mode: sim.NonPreemptive,
			Horizon: hp,
		})
		if err != nil {
			return err
		}
		for i := range inflated {
			obs := res.Tasks[i].MaxResponse
			sound := "yes"
			if res.Tasks[i].Finished == 0 {
				sound = "n/a"
			} else if obs > sr.WCRT[i]+1e-9 {
				sound = "NO"
			}
			fmt.Printf("%-6s %-6s %9.3f %9.3f %9.3f %9.3f %7s\n",
				m.name, inflated[i].Name, inflated[i].C, sr.BCRT[i], sr.WCRT[i], obs, sound)
			if sound == "NO" {
				return fmt.Errorf("simulate: %s/%s observed %.3f exceeds schedule-graph WCRT %.3f",
					m.name, inflated[i].Name, obs, sr.WCRT[i])
			}
		}
		fmt.Printf("%-6s %d jobs, %d states (%d merges, %d prunes), schedulable=%v\n",
			m.name, sr.Jobs, sr.States, sr.Merges, sr.Prunes, sr.Schedulable)
	}
	for i := range ts {
		if wcrts[0][i] > wcrts[1][i]+1e-9 || wcrts[1][i] > wcrts[2][i]+1e-9 {
			return fmt.Errorf("simulate: WCRT ordering violated for %s: exact %.3f, alg1 %.3f, eq4 %.3f",
				ts[i].Name, wcrts[0][i], wcrts[1][i], wcrts[2][i])
		}
	}
	fmt.Println("WCRT ordering exact <= Algorithm 1 <= Equation 4 holds for every task.")
	return nil
}

func stats(g *guard.Ctx, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	ts := task.Set{
		{Name: "fast", C: 1, T: 7, Q: 1},
		{Name: "medium", C: 4, T: 23, Q: 2},
		{Name: "victim", C: 30, T: 120, Q: 6},
	}
	ts.AssignRateMonotonic()
	med, err := delay.NewConstant(0.3, 4)
	if err != nil {
		return err
	}
	vic, err := delay.NewFrontLoaded(3, 0.5, 30)
	if err != nil {
		return err
	}
	fns := []delay.Function{nil, med, vic}
	cfg := sim.Config{
		Tasks: ts, Policy: sim.FixedPriority, Mode: sim.FloatingNPR,
		Horizon: 30000, Delay: fns,
	}
	cfg.Releases = sim.SporadicReleases(r, cfg, 0.4)
	res, err := sim.RunCtx(g, cfg)
	if err != nil {
		return err
	}
	if err := sim.CheckInvariants(res); err != nil {
		return fmt.Errorf("invariant violation: %w", err)
	}
	fmt.Println("response-time distributions under sporadic floating-NPR load:")
	for i := range ts {
		fmt.Printf("  %-8s %s\n", ts[i].Name, res.Stats(i))
	}
	return nil
}

func edf(g *guard.Ctx, events bool) error {
	ts := task.Set{
		{Name: "a", C: 1, T: 8},
		{Name: "b", C: 3, T: 20},
		{Name: "c", C: 6, T: 50},
	}
	qs, err := npr.AssignQCtx(g, ts, npr.EDF)
	if err != nil {
		return err
	}
	fmt.Println("EDF with Q from the Bertogna-Baruah demand-bound analysis:")
	for _, tk := range qs {
		fmt.Printf("  %s\n", tk)
	}
	b, err := delay.NewConstant(0.4, 3)
	if err != nil {
		return err
	}
	c, err := delay.NewFrontLoaded(1.5, 0.1, 6)
	if err != nil {
		return err
	}
	fns := []delay.Function{nil, b, c}
	res, err := sim.RunCtx(g, sim.Config{
		Tasks: qs, Policy: sim.EDF, Mode: sim.FloatingNPR,
		Horizon: 400, Delay: fns,
	})
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(res.Summary())
	fmt.Println(res.Timeline(5))
	if events {
		for _, e := range res.Events {
			fmt.Println(" ", e)
		}
	}
	return nil
}
