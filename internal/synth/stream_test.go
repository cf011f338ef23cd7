package synth

import (
	"math"
	"math/rand"
	"testing"
)

// streamDraws covers two full register turns: the lazily computed words of
// the first 607 draws and the plain additive recurrence after them.
const streamDraws = 2*rngLen + 50

// edgeSeeds exercise math/rand's seed normalisation: zero and its remapped
// constant, the modulus and its negation, and both int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1, 89482311,
	math.MinInt64, math.MaxInt64,
}

func newLazy(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// checkUint64 fails unless the lazy source and rand.NewSource agree on the
// first draws outputs for seed.
func checkUint64(t *testing.T, seed int64, draws int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	got := newLazy(seed)
	for n := 1; n <= draws; n++ {
		if w, g := ref.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d draw %d: lazy %#x, math/rand %#x", seed, n, g, w)
		}
	}
}

func TestStreamMatchesMathRand(t *testing.T) {
	t.Run("edge seeds", func(t *testing.T) {
		for _, seed := range edgeSeeds {
			checkUint64(t, seed, streamDraws)
		}
	})

	t.Run("mixed seeds", func(t *testing.T) {
		r := rand.New(rand.NewSource(20121017))
		for k := 0; k < 2000; k++ {
			seed := int64(r.Uint64())
			if k%4 == 0 {
				seed = SubSeed(seed, k, k*7)
			}
			checkUint64(t, seed, streamDraws)
		}
	})

	t.Run("rand.Rand methods", func(t *testing.T) {
		for k, seed := range append(edgeSeeds, 42, SubSeed(7, 3, 11)) {
			ref := rand.New(rand.NewSource(seed))
			got := rand.New(newLazy(seed))
			for n := 0; n < 200; n++ {
				if w, g := ref.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d: Float64 %v, want %v", seed, g, w)
				}
				if w, g := ref.Intn(1000+k), got.Intn(1000+k); w != g {
					t.Fatalf("seed %d: Intn %d, want %d", seed, g, w)
				}
				if w, g := ref.Int63n(1<<40+3), got.Int63n(1<<40+3); w != g {
					t.Fatalf("seed %d: Int63n %d, want %d", seed, g, w)
				}
				if w, g := ref.NormFloat64(), got.NormFloat64(); w != g {
					t.Fatalf("seed %d: NormFloat64 %v, want %v", seed, g, w)
				}
				if w, g := ref.Int31(), got.Int31(); w != g {
					t.Fatalf("seed %d: Int31 %d, want %d", seed, g, w)
				}
			}
			wp, gp := ref.Perm(64), got.Perm(64)
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("seed %d: Perm %v, want %v", seed, gp, wp)
				}
			}
		}
	})

	t.Run("reseed after partial draw", func(t *testing.T) {
		st := NewStream()
		for _, draws := range []int{0, 1, rngTap, rngTap + 1, rngLen, rngLen + 1, streamDraws} {
			r := st.Rand(99, draws, 1)
			for n := 0; n < draws; n++ {
				r.Uint64()
			}
			r = st.Rand(5, 2, draws)
			ref := rand.New(rand.NewSource(SubSeed(5, 2, draws)))
			for n := 0; n < streamDraws; n++ {
				if w, g := ref.Uint64(), r.Uint64(); w != g {
					t.Fatalf("after %d draws: reseeded draw %d = %#x, want %#x", draws, n, g, w)
				}
			}
		}
	})

	t.Run("SubRand", func(t *testing.T) {
		got := SubRand(3, 4, 5)
		ref := rand.New(rand.NewSource(SubSeed(3, 4, 5)))
		for n := 0; n < 100; n++ {
			if w, g := ref.Float64(), got.Float64(); w != g {
				t.Fatalf("SubRand draw %d = %v, want %v", n, g, w)
			}
		}
	})
}

func FuzzStreamMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(streamDraws))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkUint64(t, seed, int(draws)%(3*rngLen))
	})
}

// BenchmarkSubRand measures reseeding plus one trial's worth of draws:
// fresh math/rand source (mode=newsource) vs a reused Stream (mode=stream).
func BenchmarkSubRand(b *testing.B) {
	b.Run("mode=newsource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(SubSeed(1, 0, i)))
			for k := 0; k < 10; k++ {
				r.Float64()
			}
		}
	})
	b.Run("mode=stream", func(b *testing.B) {
		b.ReportAllocs()
		st := NewStream()
		for i := 0; i < b.N; i++ {
			r := st.Rand(1, 0, i)
			for k := 0; k < 10; k++ {
				r.Float64()
			}
		}
	})
}
