package eval

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fnpr/internal/core"
	"fnpr/internal/delay"
	"fnpr/internal/guard"
	"fnpr/internal/memo"
)

// poisonedFunction wraps a real delay function and panics inside
// FirstReachDescending at exactly one grid point: Algorithm 1's first window
// starts at prog=Q, so a window whose left edge equals poisonQ identifies the
// poisoned grid point (the fixture's progression sequence never revisits that
// value from other grid points).
type poisonedFunction struct {
	*delay.Piecewise
	poisonQ float64
}

func (p poisonedFunction) FirstReachDescending(a, b, c float64) (float64, bool) {
	if a == p.poisonQ {
		panic("injected fault for this grid point")
	}
	return p.Piecewise.FirstReachDescending(a, b, c)
}

// TestQSweepDegradesPoisonedPoint injects a panic at one grid point of one
// curve and checks the blast radius: that point degrades to the Equation 4
// fallback and is flagged with the panic's message; every other point of both
// curves completes normally.
func TestQSweepDegradesPoisonedPoint(t *testing.T) {
	base, err := delay.NewPiecewise([]float64{0, 5, 10, 40}, []float64{2, 6, 1})
	if err != nil {
		t.Fatal(err)
	}
	qs := []float64{15, 20, 25}
	const poisonQ = 20.0
	specs := []SweepSpec{
		{Name: "poisoned", F: poisonedFunction{base, poisonQ}},
		{Name: "healthy", F: base},
	}
	results, err := QSweep(nil, specs, SweepOptions{Qs: qs, Workers: 2})
	if err != nil {
		t.Fatalf("QSweep: %v", err)
	}
	healthy := results[1]
	for i, pt := range healthy.Points {
		if pt.Degraded {
			t.Fatalf("healthy curve degraded at Q=%g: %s", qs[i], pt.Note)
		}
	}
	var degraded int
	for i, pt := range results[0].Points {
		switch {
		case qs[i] == poisonQ:
			degraded++
			if !pt.Degraded {
				t.Fatalf("poisoned point Q=%g not flagged", poisonQ)
			}
			if !strings.Contains(pt.Note, "injected fault") {
				t.Fatalf("reason %q does not surface the panic", pt.Note)
			}
			// The fallback is the Equation 4 bound, which dominates
			// Algorithm 1 — so the degraded value must be at least the
			// healthy curve's value at the same Q.
			if pt.Value < healthy.Points[i].Value {
				t.Fatalf("degraded value %g below Algorithm 1 value %g", pt.Value, healthy.Points[i].Value)
			}
		case pt.Degraded:
			t.Fatalf("unpoisoned point Q=%g degraded: %s", qs[i], pt.Note)
		default:
			if pt.Value != healthy.Points[i].Value {
				t.Fatalf("poisoned curve differs from healthy at clean Q=%g: %g vs %g",
					qs[i], pt.Value, healthy.Points[i].Value)
			}
		}
	}
	if degraded != 1 {
		t.Fatalf("%d degraded points, want exactly 1", degraded)
	}
	notes := Degraded(results)
	if len(notes) != 1 || !strings.Contains(notes[0], "Q=20") {
		t.Fatalf("Degraded notes = %v, want one note naming Q=20", notes)
	}
}

// TestQSweepCanceled: an already-canceled guard aborts the sweep up front.
func TestQSweepCanceled(t *testing.T) {
	base, err := delay.NewPiecewise([]float64{0, 5, 40}, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = QSweep(guard.New(ctx), []SweepSpec{{Name: "f", F: base}}, SweepOptions{Qs: []float64{15, 20}, Workers: 2})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled sweep: got %v, want ErrCanceled", err)
	}
}

// TestFigure5CanceledPromptly: the acceptance criterion of the guarded
// runtime — Figure5 under an already-canceled context returns ErrCanceled
// without running the sweep (the guard is consulted before any grid point is
// scheduled, so no steps are charged).
func TestFigure5CanceledPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := guard.New(ctx)
	tb, err := Figure5(g, delay.CalibratedParams(), SweepOptions{})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("canceled Figure5: got %v, want ErrCanceled", err)
	}
	if tb != nil {
		t.Fatal("canceled Figure5 still returned a table")
	}
	if g.Steps() != 0 {
		t.Fatalf("canceled Figure5 charged %d steps; the sweep ran anyway", g.Steps())
	}
}

// TestQSweepBudgetAborts: global budget exhaustion is fatal to the whole
// sweep (every remaining point would fail identically), not a degradation —
// but the grid points that finished before the budget ran out are returned
// alongside the error in a *PartialError, not discarded.
func TestQSweepBudgetAborts(t *testing.T) {
	base, err := delay.NewPiecewise([]float64{0, 5, 10, 40}, []float64{2, 6, 1})
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's points charge 1-2 steps each: budget 3 lets the first
	// point (Q=15, 2 steps) finish, then exhausts inside the second.
	g := guard.New(context.Background()).WithBudget(3)
	results, err := QSweep(g, []SweepSpec{{Name: "f", F: base}}, SweepOptions{Qs: []float64{15, 20, 25}, Workers: 1})
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("budget 3 sweep: got %v, want ErrBudgetExceeded", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("abort error %T does not carry a *PartialError", err)
	}
	if pe.Total != 3 {
		t.Fatalf("PartialError.Total = %d, want 3", pe.Total)
	}
	if pe.Completed < 1 || pe.Completed >= pe.Total {
		t.Fatalf("PartialError.Completed = %d, want mid-sweep (1 or 2 of 3)", pe.Completed)
	}
	if len(results) != 1 || len(results[0].Points) != 3 {
		t.Fatalf("partial results missing: %v", results)
	}
	first := results[0].Points[0]
	if !first.Done || first.Degraded || first.Value <= 0 {
		t.Fatalf("first point not completed cleanly before abort: %+v", first)
	}
	var done int
	for _, pt := range results[0].Points {
		if pt.Done {
			done++
		}
	}
	if done != pe.Completed {
		t.Fatalf("Done points %d disagree with PartialError.Completed %d", done, pe.Completed)
	}
}

// TestQSweepDeterministicAcrossWorkers: every point of a sweep is a pure
// function of its (spec, Q), so the table must be bit-identical for 1, 4 and
// GOMAXPROCS workers. The fixture mixes clean points, memo hits (a cache
// pre-warmed with half the specs), diverged (+Inf) points and points degraded
// after retried panics.
func TestQSweepDeterministicAcrossWorkers(t *testing.T) {
	_, fns := memoTestSet(t, rand.New(rand.NewSource(13)), 6)
	base, err := delay.NewPiecewise([]float64{0, 5, 10, 40}, []float64{2, 6, 1})
	if err != nil {
		t.Fatal(err)
	}
	var specs []SweepSpec
	for i, f := range fns {
		specs = append(specs, SweepSpec{Name: "s" + itoa(i), F: f})
	}
	// The poisoned curve diverges at Q <= 6 and degrades at Q=9 and Q=20
	// after three attempts each.
	specs = append(specs, SweepSpec{Name: "poisoned", F: poisonedFunction{base, 20}})
	qs := []float64{3, 4.5, 6, 7.25, 9, 15, 20, 25}

	run := func(workers int) []SweepResult {
		cache := core.NewResultCache(memo.Options{})
		if _, err := QSweep(nil, specs[:3], SweepOptions{Qs: qs, Workers: 1, Memo: cache}); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
		res, err := QSweep(nil, specs, SweepOptions{Qs: qs, Workers: workers, Memo: cache, Retry: noSleepRetry(3)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	var cached, degraded, diverged int
	for _, r := range want {
		for _, pt := range r.Points {
			if pt.Cached {
				cached++
			}
			if pt.Degraded {
				degraded++
			}
			if math.IsInf(pt.Value, 1) {
				diverged++
			}
		}
	}
	if cached == 0 || degraded == 0 || diverged == 0 {
		t.Fatalf("fixture lost coverage: %d cached, %d degraded, %d diverged points", cached, degraded, diverged)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		for s := range want {
			for k, w := range want[s].Points {
				g := got[s].Points[k]
				if math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
					g.Cached != w.Cached || g.Degraded != w.Degraded || g.Attempts != w.Attempts {
					t.Fatalf("workers=%d %s Q=%g: got %+v, want %+v", workers, want[s].Name, w.Q, g, w)
				}
			}
		}
	}
}
