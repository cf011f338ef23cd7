package npr

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fnpr/internal/guard"
	"fnpr/internal/task"
)

// schedulingPoints is the reference enumeration the in-place merge of
// FPBlockingToleranceCtx replaced: every multiple of a higher-priority
// period below limit (accumulated by repeated addition), plus limit itself,
// deduplicated through a map and sorted.
func schedulingPoints(ts task.Set, i int, limit float64) []float64 {
	set := map[float64]struct{}{limit: {}}
	for j := 0; j < i; j++ {
		for t := ts[j].T; t < limit; t += ts[j].T {
			set[t] = struct{}{}
		}
	}
	out := make([]float64, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Float64s(out)
	return out
}

// fpBlockingToleranceRef is FPBlockingToleranceCtx over the reference
// enumeration, charging one guard step per point.
func fpBlockingToleranceRef(g *guard.Ctx, ts task.Set) ([]float64, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	out := make([]float64, len(ts))
	for i, tk := range ts {
		best := math.Inf(-1)
		for _, t := range schedulingPoints(ts, i, tk.Deadline()) {
			if err := g.Tick(); err != nil {
				return nil, err
			}
			if s := t - RequestBound(ts, i, t); s > best {
				best = s
			}
		}
		out[i] = best
	}
	return out, nil
}

// pointSets returns the differential corpus: random real-valued periods,
// harmonic periods, periods with many coinciding multiples, deadlines equal
// to a higher-priority multiple, and release jitter.
func pointSets(r *rand.Rand) []task.Set {
	named := func(tasks ...task.Task) task.Set {
		for i := range tasks {
			tasks[i].Name = string(rune('a' + i))
		}
		return tasks
	}
	sets := []task.Set{
		// Harmonic: every multiple of 4 coincides with one of 2.
		named(task.Task{C: 0.5, T: 2}, task.Task{C: 1, T: 4}, task.Task{C: 2, T: 8}, task.Task{C: 3, T: 16}),
		// Coinciding multiples (12, 24, 36) and a deadline (36) equal to
		// a multiple of every higher-priority period.
		named(task.Task{C: 1, T: 4}, task.Task{C: 1, T: 6}, task.Task{C: 2, T: 12}, task.Task{C: 3, T: 40, D: 36}),
		// Deadline equal to a multiple, with jitter.
		named(task.Task{C: 1, T: 5, Jitter: 0.7}, task.Task{C: 2, T: 10, Jitter: 1.5}, task.Task{C: 2, T: 30, D: 20}),
		// Non-integral periods whose accumulated sums drift off the
		// exact multiples.
		named(task.Task{C: 0.05, T: 0.1}, task.Task{C: 0.1, T: 0.3}, task.Task{C: 0.5, T: 7, D: 6.1}),
		// Unschedulable: the tolerance goes negative.
		named(task.Task{C: 3, T: 4}, task.Task{C: 3, T: 5}),
	}
	for k := 0; k < 300; k++ {
		n := 1 + r.Intn(7)
		ts := make(task.Set, n)
		for i := range ts {
			var period float64
			switch k % 3 {
			case 0: // real-valued
				period = 1 + r.Float64()*60
			case 1: // harmonic
				period = float64(int(3) << r.Intn(6))
			default: // small integers: many coincidences
				period = float64(2 + r.Intn(12))
			}
			d := period
			if r.Intn(3) == 0 {
				d = period * (0.5 + r.Float64()/2)
				if r.Intn(2) == 0 && i > 0 {
					// A deadline on a higher-priority multiple.
					d = math.Min(period, ts[0].T*float64(1+r.Intn(4)))
				}
			}
			c := math.Min(d, 0.1+r.Float64()*period/float64(n))
			jitter := 0.0
			if r.Intn(4) == 0 {
				jitter = r.Float64() * period / 4
			}
			ts[i] = task.Task{Name: string(rune('a' + i)), C: c, T: period, D: d, Jitter: jitter}
		}
		sets = append(sets, ts)
	}
	return sets
}

// TestSchedulingPointMergeDifferential pins the merge to the reference
// enumeration: bit-identical tolerances and the same guard step count, so a
// step budget that stops the reference at step k stops the merge at step k.
func TestSchedulingPointMergeDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for si, ts := range pointSets(r) {
		gRef, gNew := guard.New(context.Background()), guard.New(context.Background())
		want, errRef := fpBlockingToleranceRef(gRef, ts)
		got, errNew := FPBlockingToleranceCtx(gNew, ts)
		if errRef != nil || errNew != nil {
			t.Fatalf("set %d %v: reference err %v, merge err %v", si, ts, errRef, errNew)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("set %d %v: β%d = %v, reference %v", si, ts, i, got[i], want[i])
			}
		}
		steps := gRef.Steps()
		if gNew.Steps() != steps {
			t.Fatalf("set %d %v: merge charged %d steps, reference %d", si, ts, gNew.Steps(), steps)
		}
		for _, budget := range []int64{1, steps / 2, steps - 1} {
			if budget < 1 || budget >= steps {
				continue
			}
			_, errRef := fpBlockingToleranceRef(guard.New(context.Background()).WithBudget(budget), ts)
			_, errNew := FPBlockingToleranceCtx(guard.New(context.Background()).WithBudget(budget), ts)
			if errRef == nil || errNew == nil || errRef.Error() != errNew.Error() {
				t.Fatalf("set %d budget %d: reference err %v, merge err %v", si, budget, errRef, errNew)
			}
		}
	}
}
