package sched

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/memo"
	"fnpr/internal/npr"
	"fnpr/internal/obs"
	"fnpr/internal/synth"
	"fnpr/internal/task"
)

// solverFixture draws one differential trial: a random task set (optionally
// with release jitter and constrained deadlines, so the jittered RTA and
// the QPA phase-1 walk are both exercised) plus a mix of delay functions —
// nil (no delay), benign front-loaded curves, aggressive ones that push the
// set over its deadlines, and divergent ones whose peak reaches the NPR
// length Q so the per-task bound has no finite answer.
func solverFixture(r *rand.Rand) (task.Set, []delay.Function, error) {
	ts, err := synth.TaskSet(r, synth.TaskSetParams{
		N:           2 + r.Intn(5),
		Utilization: 0.35 + 0.6*r.Float64(),
		PeriodLo:    10,
		PeriodHi:    400,
		RoundPeriod: true,
		QFraction:   0.2 + 0.4*r.Float64(),
		MinQ:        0.05,
	})
	if err != nil {
		return nil, nil, err
	}
	if r.Intn(3) == 0 {
		for i := range ts {
			ts[i].Jitter = r.Float64() * 0.2 * ts[i].T
		}
	}
	if r.Intn(3) == 0 {
		// Constrained deadlines D < T: the EDF horizon then exceeds the
		// largest deadline, which is what sends the QPA walk through its
		// descending phase 1.
		for i := range ts {
			d := ts[i].C + r.Float64()*(ts[i].T-ts[i].C)
			if d < ts[i].T {
				ts[i].D = d
			}
		}
	}
	if err := ts.Validate(); err != nil {
		return nil, nil, err
	}
	fns := make([]delay.Function, len(ts))
	for i := 1; i < len(ts); i++ {
		var peak float64
		switch r.Intn(4) {
		case 0: // no delay for this task
			continue
		case 1: // divergent: the delay never drops below the NPR length
			peak = ts[i].Q * (1.1 + r.Float64())
		default: // benign-to-aggressive, but analysable
			peak = ts[i].Q * (0.2 + 0.7*r.Float64())
		}
		if peak > ts[i].C {
			peak = ts[i].C * 0.9
		}
		if peak <= 0 {
			continue
		}
		fn, err := delay.NewFrontLoaded(peak, peak/5, ts[i].C)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = fn
	}
	return ts, fns, nil
}

// sameFloats reports exact elementwise equality (+Inf included; == handles
// it, and NaN never appears in response times).
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// checkEDFWalks rebuilds the inflated set the EDF demand test sees for
// fixture (ts, fns) and fails the test unless the QPA walk and the plain
// enumeration return the same verdict, and that verdict is the one Analyze
// reports.
func checkEDFWalks(t *testing.T, ts task.Set, fns []delay.Function) {
	t.Helper()
	res, err := Analyze(nil, ts, Options{Policy: EDF, Delay: fns, Method: Algorithm1})
	if err != nil {
		return
	}
	cp := res.EffectiveC
	inflated := ts.Clone()
	for i := range inflated {
		if math.IsInf(cp[i], 1) {
			return // divergent: decided before the demand test runs
		}
		inflated[i].C = cp[i]
	}
	if inflated.Utilization() > 1 {
		return
	}
	horizon, err := npr.AnalysisHorizon(inflated)
	if err != nil {
		return
	}
	pts, ok := edfDeadlines(inflated, horizon)
	if !ok {
		t.Fatalf("fixture exceeds edfMaxPoints: %v", ts)
	}
	// A nil guard never aborts, so neither walk can return an error.
	qpa, err := edfDemandQPA(nil, nil, inflated, cp, pts)
	if err != nil {
		t.Fatal(err)
	}
	enum, err := edfDemandEnum(nil, nil, inflated, cp, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if qpa != enum {
		t.Fatalf("edf: QPA verdict %v, enumeration %v (set %v, C' %v)", qpa, enum, ts, cp)
	}
	if qpa != res.Schedulable {
		t.Fatalf("edf: Analyze verdict %v, walks %v", res.Schedulable, qpa)
	}
}

// eq4Monotone is the reference Equation 4 loop: plain monotone iteration
// cur' = c + ceil(cur/q)·m from cur = c, without the relaxation-root jump
// core takes. It returns the cumulative delay, +Inf when m >= q.
func eq4Monotone(c, q, m float64) float64 {
	if m == 0 {
		return 0
	}
	if m >= q {
		return math.Inf(1)
	}
	cur := c
	for {
		next := c + math.Ceil(cur/q)*m
		if next <= cur {
			return cur - c
		}
		cur = next
	}
}

// checkEq4Jump fails the test unless core's Equation 4 bound (one
// relaxation-root jump, then monotone settling) equals the monotone
// reference bit for bit, for every delay function of the fixture at the
// task's Q and at a Q with relaxation slope 0.8.
func checkEq4Jump(t *testing.T, ts task.Set, fns []delay.Function) {
	t.Helper()
	for i, f := range fns {
		if f == nil {
			continue
		}
		c := f.Domain()
		_, m := f.MaxOn(0, c)
		for _, q := range []float64{ts[i].Q, 1.25 * m} {
			got, err := core.Analyze(nil, f, q, core.Options{Method: core.Equation4})
			if err != nil {
				t.Fatalf("eq4 task %d Q=%g: %v", i, q, err)
			}
			if want := eq4Monotone(c, q, m); got.TotalDelay != want {
				t.Fatalf("eq4 task %d (C=%g Q=%g max=%g): jump %v, monotone %v", i, c, q, m, got.TotalDelay, want)
			}
		}
	}
}

// solverTrial runs both differentials on one fixture.
func solverTrial(t *testing.T, ts task.Set, fns []delay.Function) {
	t.Helper()
	checkEDFWalks(t, ts, fns)
	checkEq4Jump(t, ts, fns)
}

// TestSolverDifferential pins the two fixpoints that keep a second path:
// across 10k random task sets — schedulable, unschedulable and divergent
// alike — the EDF QPA walk returns the enumeration's verdict and the
// Equation 4 jump returns the monotone loop's value, bit for bit.
func TestSolverDifferential(t *testing.T) {
	trials := 10_000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		r := synth.SubRand(1811, 0, trial)
		ts, fns, err := solverFixture(r)
		if err != nil {
			continue
		}
		solverTrial(t, ts, fns)
	}
}

// FuzzSolverEquivalence fuzzes the same differential: for any seed whose
// fixture builds, both pairs of paths must agree bit for bit.
func FuzzSolverEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 42, 1811, 99991, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		ts, fns, err := solverFixture(r)
		if err != nil {
			t.Skip()
		}
		solverTrial(t, ts, fns)
	})
}

// TestAnalyzeMatchesDeprecated: the consolidated entry point must reproduce
// every test-local wrapper of compat_test.go bit for bit.
func TestAnalyzeMatchesDeprecated(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		r := synth.SubRand(4177, 2, trial)
		ts, fns, err := solverFixture(r)
		if err != nil {
			continue
		}
		a := FNPRAnalysis{Tasks: ts, Delay: fns, Method: Algorithm1}
		oldR, oldErr := a.ResponseTimesFPCtx(nil)
		newR, newErr := Analyze(nil, ts, Options{Delay: fns, Method: Algorithm1})
		if (oldErr == nil) != (newErr == nil) {
			t.Fatalf("trial %d: wrapper err=%v, Analyze err=%v", trial, oldErr, newErr)
		}
		if oldErr == nil && !sameFloats(oldR, newR.Response) {
			t.Fatalf("trial %d: FP responses differ: %v vs %v", trial, oldR, newR.Response)
		}
		oldOK, oldErr := a.SchedulableEDFCtx(nil)
		edf, newErr := Analyze(nil, ts, Options{Policy: EDF, Delay: fns, Method: Algorithm1})
		if (oldErr == nil) != (newErr == nil) {
			t.Fatalf("trial %d: EDF wrapper err=%v, Analyze err=%v", trial, oldErr, newErr)
		}
		if oldErr == nil && oldOK != edf.Schedulable {
			t.Fatalf("trial %d: EDF verdicts differ: %v vs %v", trial, oldOK, edf.Schedulable)
		}
		oldLim, oldErr := a.ResponseTimesFPLimitedCtx(nil)
		newLim, newErr := Analyze(nil, ts, Options{Delay: fns, Method: Algorithm1, Limited: true})
		if (oldErr == nil) != (newErr == nil) {
			t.Fatalf("trial %d: limited wrapper err=%v, Analyze err=%v", trial, oldErr, newErr)
		}
		if oldErr == nil {
			if !sameFloats(oldLim.Response, newLim.Response) ||
				!sameFloats(oldLim.EffectiveC, newLim.EffectiveC) {
				t.Fatalf("trial %d: limited results differ", trial)
			}
		}
	}
}

// TestCPrimeMemoIncremental: with a memo cache attached, re-analysing after a
// single-task edit recomputes only the edited task's delay bound — the other
// n-1 bounds are cache hits, counted by sched.cprime.{cached,computed}.
func TestCPrimeMemoIncremental(t *testing.T) {
	ts := task.Set{
		{Name: "a", C: 2, T: 20, Q: 1},
		{Name: "b", C: 5, T: 60, Q: 2},
		{Name: "c", C: 9, T: 150, Q: 3},
		{Name: "d", C: 15, T: 400, Q: 4},
	}
	fns := make([]delay.Function, len(ts))
	for i := 1; i < len(ts); i++ {
		fn, err := delay.NewFrontLoaded(0.5*ts[i].Q, 0.1*ts[i].Q, ts[i].C)
		if err != nil {
			t.Fatal(err)
		}
		fns[i] = fn
	}
	cache := core.NewResultCache(memo.Options{})
	run := func(ts task.Set) (cached, computed int64) {
		reg := obs.NewRegistry()
		g := guard.New(context.Background()).WithObs(obs.NewScope(reg))
		if _, err := Analyze(g, ts, Options{Delay: fns, Method: Algorithm1, Memo: cache}); err != nil {
			t.Fatal(err)
		}
		return reg.Counter("sched.cprime.cached").Value(),
			reg.Counter("sched.cprime.computed").Value()
	}
	if cached, computed := run(ts); cached != 0 || computed != 3 {
		t.Fatalf("cold run: cached=%d computed=%d, want 0/3", cached, computed)
	}
	if cached, computed := run(ts); cached != 3 || computed != 0 {
		t.Fatalf("repeat run: cached=%d computed=%d, want 3/0", cached, computed)
	}
	edited := ts.Clone()
	edited[2].Q = 2.5 // changes only task c's (function, Q) identity
	if cached, computed := run(edited); cached != 2 || computed != 1 {
		t.Fatalf("edited run: cached=%d computed=%d, want 2/1", cached, computed)
	}
}
