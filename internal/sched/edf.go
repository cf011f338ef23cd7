package sched

import (
	"math"
	"sort"

	"fnpr/internal/guard"
	"fnpr/internal/npr"
	"fnpr/internal/obs"
	"fnpr/internal/task"
)

// This file implements the EDF processor-demand test: the QPA-style
// descending deadline walk, with the plain enumeration as the fallback for
// deadline lists too long to materialise. Both return identical verdicts —
// differentially asserted on 10k random task sets in solver_test.go and
// fuzzed continuously by FuzzSolverEquivalence.

// edfMaxPoints caps the deadline list the QPA walk materializes (16 MB of
// float64 at the cap); sets beyond it fall back to the plain enumeration,
// which streams the deadlines instead.
const edfMaxPoints = 2_000_000

// edfDeadlines lists every absolute deadline d = Di + k·Ti ≤ horizon of the
// task set, sorted ascending, accumulated exactly like the plain
// enumeration (d += T) so both walks test identical float values. ok is
// false when the list would exceed edfMaxPoints.
func edfDeadlines(ts task.Set, horizon float64) (pts []float64, ok bool) {
	for _, tk := range ts {
		for d := tk.Deadline(); d <= horizon; d += tk.T {
			if len(pts) >= edfMaxPoints {
				return nil, false
			}
			pts = append(pts, d)
		}
	}
	sort.Float64s(pts)
	return pts, true
}

// edfDemandTest checks dbf'(t) + max_{Dj > t} min(Qj, C'j) <= t at every
// absolute deadline t up to the horizon with the QPA-style walk. Deadline
// lists over edfMaxPoints fall back to the streaming enumeration, counted
// by sched.rta.solver.fallbacks; the verdict is the same either way.
func edfDemandTest(g *guard.Ctx, sc *obs.Scope, inflated task.Set, cp []float64, horizon float64) (bool, error) {
	pts, ok := edfDeadlines(inflated, horizon)
	if !ok {
		sc.Counter("sched.rta.solver.fallbacks").Inc()
		return edfDemandEnum(g, sc, inflated, cp, horizon)
	}
	return edfDemandQPA(g, sc, inflated, cp, pts)
}

// edfDemandEnum is the plain enumeration: check every absolute deadline, one
// guard step per deadline, streaming instead of materialising the list.
func edfDemandEnum(g *guard.Ctx, sc *obs.Scope, inflated task.Set, cp []float64, horizon float64) (bool, error) {
	solverIters := sc.Counter("sched.rta.solver.iterations")
	for _, tk := range inflated {
		for d := tk.Deadline(); d <= horizon; d += tk.T {
			if err := g.Tick(); err != nil {
				return false, err
			}
			solverIters.Inc()
			demand := npr.DemandBound(inflated, d)
			if demand+edfBlocking(inflated, cp, d) > d+1e-9 {
				return false, nil
			}
		}
	}
	return true, nil
}

// edfBlocking is the floating-NPR blocking term at deadline d: the largest
// min(Qj, C'j) over tasks whose relative deadline exceeds d. It is zero for
// d at or above the largest relative deadline.
func edfBlocking(inflated task.Set, cp []float64, d float64) float64 {
	var blocking float64
	for j := range inflated {
		if inflated[j].Deadline() > d {
			if q := math.Min(inflated[j].Q, cp[j]); q > blocking {
				blocking = q
			}
		}
	}
	return blocking
}

// edfDemandQPA runs the two-phase QPA-style walk over the sorted deadline
// list pts.
//
// Phase 1 descends over deadlines above Dmax (the largest relative
// deadline), where the blocking term is identically zero: after checking
// deadline t with demand h = dbf(t) ≤ t + 1e-9, every deadline d' in
// [h, t) satisfies dbf(d') ≤ dbf(t) = h ≤ d' (dbf is monotone in d and both
// walks evaluate it on identical floats), so the walk skips straight to
// the largest deadline below min(h, t). Phase 2 checks every deadline at or
// below Dmax exhaustively — there the blocking term grows as d shrinks, so
// the skip argument does not apply. Every skipped point is provably
// violation-free and every other point is checked with the enumeration's
// exact predicate, so the verdict is identical.
func edfDemandQPA(g *guard.Ctx, sc *obs.Scope, inflated task.Set, cp []float64, pts []float64) (bool, error) {
	solverIters := sc.Counter("sched.rta.solver.iterations")
	var dmax float64
	for _, tk := range inflated {
		if d := tk.Deadline(); d > dmax {
			dmax = d
		}
	}
	// Phase 1: QPA descent above Dmax (blocking = 0).
	i := len(pts) - 1
	for i >= 0 && pts[i] > dmax {
		t := pts[i]
		if err := g.Tick(); err != nil {
			return false, err
		}
		solverIters.Inc()
		demand := npr.DemandBound(inflated, t)
		if demand > t+1e-9 {
			return false, nil
		}
		// Largest remaining deadline strictly below min(demand, t).
		i = sort.SearchFloat64s(pts[:i], math.Min(demand, t)) - 1
	}
	// Phase 2: exhaustive check at and below Dmax.
	limit := sort.Search(len(pts), func(k int) bool { return pts[k] > dmax })
	for k := 0; k < limit; k++ {
		if err := g.Tick(); err != nil {
			return false, err
		}
		solverIters.Inc()
		d := pts[k]
		demand := npr.DemandBound(inflated, d)
		if demand+edfBlocking(inflated, cp, d) > d+1e-9 {
			return false, nil
		}
	}
	return true, nil
}

// edfSchedulable runs the processor-demand test with effective WCETs and the
// floating-NPR blocking term of Bertogna and Baruah. Divergent effective
// WCETs and over-unit utilization are unschedulable, not errors.
func edfSchedulable(g *guard.Ctx, sc *obs.Scope, ts task.Set, opts Options, cp []float64) (bool, error) {
	inflated := ts.Clone()
	for i := range inflated {
		if math.IsInf(cp[i], 1) {
			return false, nil
		}
		inflated[i].C = cp[i]
	}
	if inflated.Utilization() > 1 {
		return false, nil
	}
	horizon, err := npr.AnalysisHorizon(inflated)
	if err != nil {
		return false, err
	}
	return edfDemandTest(g, sc, inflated, cp, horizon)
}
