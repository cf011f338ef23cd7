package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fnpr/internal/delay"
)

func TestUpperBoundLimitedBasics(t *testing.T) {
	f := delay.Constant(2, 100)
	full, _ := UpperBound(f, 10) // 12 iterations x 2 = 24
	// Unlimited.
	b, err := UpperBoundLimited(f, 10, -1)
	if err != nil {
		t.Fatal(err)
	}
	if b != full {
		t.Fatalf("unlimited = %g, want %g", b, full)
	}
	// More than the iteration count: same as full.
	b, _ = UpperBoundLimited(f, 10, 100)
	if b != full {
		t.Fatalf("n=100 = %g, want %g", b, full)
	}
	// Three preemptions max: 3 x 2 = 6.
	b, _ = UpperBoundLimited(f, 10, 3)
	if b != 6 {
		t.Fatalf("n=3 = %g, want 6", b)
	}
	// Zero preemptions: zero delay.
	b, _ = UpperBoundLimited(f, 10, 0)
	if b != 0 {
		t.Fatalf("n=0 = %g, want 0", b)
	}
}

func TestUpperBoundLimitedPicksLargestCharges(t *testing.T) {
	// One expensive region: the n-largest refinement keeps the expensive
	// charges, so it must dominate any scenario but stay below n*max
	// when cheaper windows dominate... here charges are 5 (peak window)
	// and ~0 elsewhere.
	f, err := delay.NewPiecewise([]float64{0, 48, 52, 200}, []float64{0, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := UpperBound(f, 20)
	b, _ := UpperBoundLimited(f, 20, 1)
	if b != 5 {
		t.Fatalf("n=1 = %g, want 5 (the single peak charge)", b)
	}
	if full < b {
		t.Fatalf("full %g below limited %g", full, b)
	}
}

func TestUpperBoundLimitedDivergentFallsBack(t *testing.T) {
	f := delay.Constant(10, 100) // delay == Q: divergent
	b, err := UpperBoundLimited(f, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b != 30 {
		t.Fatalf("divergent n=3 = %g, want 30 (n x max)", b)
	}
	b, _ = UpperBoundLimited(f, 10, -1)
	if !math.IsInf(b, 1) {
		t.Fatalf("divergent unlimited = %g, want +Inf", b)
	}
}

func TestUpperBoundLimitedValidation(t *testing.T) {
	if _, err := UpperBoundLimited(nil, 10, 3); err == nil {
		t.Fatal("accepted nil function")
	}
	if _, err := UpperBoundLimited(delay.Constant(1, 10), 0, 3); err == nil {
		t.Fatal("accepted Q=0")
	}
}

// Soundness: scenarios with at most n preemptions never exceed the limited
// bound. Adversaries: greedy truncated to n, peak-seeking truncated to n,
// and random n-subsets of valid instants.
func TestUpperBoundLimitedSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(314))
	for trial := 0; trial < 300; trial++ {
		c := 50 + r.Float64()*400
		maxV := 1 + r.Float64()*8
		q := maxV + 0.5 + r.Float64()*40
		f := randomPiecewise(r, c, maxV)
		n := r.Intn(5)
		bound, err := UpperBoundLimited(f, q, n)
		if err != nil {
			t.Fatal(err)
		}
		check := func(s Scenario, label string) {
			if len(s) > n {
				s = s[:n]
			}
			run, err := s.Run(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if run.TotalDelay > bound+1e-9 {
				t.Fatalf("trial %d: %s scenario with %d preemptions pays %g > limited bound %g (n=%d, Q=%g, f=%v)",
					trial, label, run.Preemptions, run.TotalDelay, bound, n, q, f)
			}
		}
		g, _ := GreedyScenario(f, q)
		check(g, "greedy")
		p, _ := PeakSeekingScenario(f, q)
		check(p, "peak")
		for k := 0; k < 10; k++ {
			var s Scenario
			e := q + r.Float64()*q
			for len(s) < n && e < c+100 {
				s = append(s, e)
				e += q + r.Float64()*q
			}
			check(s, "random")
		}
	}
}

// The limited bound is monotone in n and never exceeds the full bound.
func TestUpperBoundLimitedMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		c := 50 + r.Float64()*300
		maxV := 1 + r.Float64()*6
		q := maxV + 1 + r.Float64()*30
		f := randomPiecewise(r, c, maxV)
		full, _ := UpperBound(f, q)
		prev := 0.0
		for n := 0; n <= 8; n++ {
			b, err := UpperBoundLimited(f, q, n)
			if err != nil {
				t.Fatal(err)
			}
			if b < prev-1e-12 {
				t.Fatalf("trial %d: bound decreased from %g to %g at n=%d", trial, prev, b, n)
			}
			if b > full+1e-12 {
				t.Fatalf("trial %d: limited bound %g exceeds full %g", trial, b, full)
			}
			if _, maxF := f.Max(); b > float64(n)*maxF+1e-9 {
				t.Fatalf("trial %d: limited bound %g exceeds n*max %g", trial, b, float64(n)*maxF)
			}
			prev = b
		}
	}
}

func TestPreemptionCount(t *testing.T) {
	n, err := PreemptionCount(50, []float64{10, 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 { // ceil(50/10)=5 + ceil(50/25)=2
		t.Fatalf("count = %d, want 7", n)
	}
	n, err = PreemptionCount(50, []float64{10}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 { // ceil(55/10)
		t.Fatalf("count with jitter = %d, want 6", n)
	}
	if _, err := PreemptionCount(50, []float64{0}, nil); err == nil {
		t.Fatal("accepted zero period")
	}
	if _, err := PreemptionCount(-1, []float64{10}, nil); err == nil {
		t.Fatal("accepted negative response time")
	}
	if _, err := PreemptionCount(10, []float64{10, 20}, []float64{1}); err == nil {
		t.Fatal("accepted mismatched jitters")
	}
}

// The limited bound keeps only the n largest charges while walking; it must
// equal, bit for bit, the sum of the n largest DelayMax of the full trace
// added largest first, for every n around the iteration count.
func TestUpperBoundLimitedMatchesTrace(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 200; trial++ {
		c := 50 + r.Float64()*400
		maxV := 1 + r.Float64()*8
		q := maxV + 0.1 + r.Float64()*20
		f := randomPiecewise(r, c, maxV)
		full, err := Analyze(nil, f, q, Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		charges := make([]float64, len(full.Iterations))
		for i, it := range full.Iterations {
			charges[i] = it.DelayMax
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(charges)))
		for _, n := range []int{0, 1, 2, 3, 7, len(charges) / 2, len(charges) - 1, len(charges), len(charges) + 1} {
			if n < 0 {
				continue
			}
			want := full.TotalDelay
			if n < len(charges) {
				want = 0
				for _, ch := range charges[:n] {
					want += ch
				}
			}
			for _, tr := range []bool{false, true} {
				got, err := Analyze(nil, f, q, Options{Limited: true, MaxPreemptions: n, Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.TotalDelay) != math.Float64bits(want) {
					t.Fatalf("trial %d n=%d trace=%v: limited %v, trace charges give %v (Q=%g, f=%v)",
						trial, n, tr, got.TotalDelay, want, q, f)
				}
			}
		}
	}
}
