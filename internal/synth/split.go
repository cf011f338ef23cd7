package synth

import "math/rand"

// This file provides splittable seed derivation for sharded experiment
// campaigns. A campaign that fans its trials out over a worker pool cannot
// share one sequential *rand.Rand without making the draw order — and hence
// every result — depend on goroutine scheduling. Instead each (point, trial)
// shard derives its own seed from the campaign seed through SplitMix64, a
// bijective 64-bit finalizer with full avalanche (Steele, Lea & Flood's
// SplittableRandom construction; also the stream-seeding mix of xoshiro).
// The derived seed is a pure function of (seed, point, trial), so a campaign
// produces bit-identical results for any worker count, including one.
//
// SplitMix64 is bijective for a fixed increment, so two shards of the same
// campaign collide only if their (point, trial) pairs collide; across
// campaign seeds the mixing makes correlated sub-streams astronomically
// unlikely (no structure survives three rounds of the finalizer).

// splitmix64 advances one SplitMix64 state step and returns the mixed
// output: the golden-gamma increment followed by the MurmurHash3-style
// 64-bit finalizer (variant by David Stafford, mix 13).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SubSeed derives the deterministic seed of one (point, trial) shard of a
// campaign seeded with seed. The derivation chains three SplitMix64 rounds —
// one per input — so shards that differ in any coordinate (or campaigns that
// differ in seed) get unrelated streams, while the same coordinates always
// reproduce the same seed regardless of evaluation order or worker count.
func SubSeed(seed int64, point, trial int) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ uint64(point))
	x = splitmix64(x ^ uint64(trial))
	return int64(x)
}

// SubRand returns a *rand.Rand seeded for the (point, trial) shard — the
// generator a campaign worker draws one trial's inputs from. Its sequence is
// rand.NewSource(SubSeed(seed, point, trial))'s; campaign workers reseed one
// Stream per trial instead of building a generator each time.
func SubRand(seed int64, point, trial int) *rand.Rand {
	return NewStream().Rand(seed, point, trial)
}
