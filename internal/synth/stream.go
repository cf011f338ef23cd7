package synth

import "math/rand"

// This file reproduces math/rand's default source bit for bit at O(1)
// seeding cost. rand.NewSource fills a 607-word additive lagged-Fibonacci
// register from a Lehmer generator (x(k+1) = 48271·x(k) mod 2³¹−1), about
// 1,860 multiply-mod steps and a 5 KB allocation — the dominant cost of a
// campaign trial that then draws a dozen numbers. Register word i is
//
//	x(21+3i)<<40 ^ x(22+3i)<<20 ^ x(23+3i) ^ rngCooked[i]
//
// and x(k) = x(0)·48271ᵏ mod 2³¹−1, so with a table of the powers any word
// costs three multiplications. Draw n (1-based) adds the register words at
// the feed index (334−n) mod 607 and the tap index (−n) mod 607 and stores
// the sum at the feed index. The first 273 draws read both words unwritten,
// draws 274–607 read an unwritten feed word, and from draw 608 on both words
// have been written, so lazySource computes each original word on the one
// draw that reads it and never materialises the register eagerly.

const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap
	lehmerM = 1<<31 - 1
	lehmerA = 48271
	// lehmerSteps is the number of Lehmer states the seeding consumes:
	// 20 warm-up steps, then three per register word.
	lehmerSteps = 21 + 3*rngLen
)

var (
	// lehmerPow[k] = 48271ᵏ mod 2³¹−1.
	lehmerPow [lehmerSteps]uint64
	// rngCooked is math/rand's register whitening table, recovered from the
	// reference source by initCooked.
	rngCooked [rngLen]int64
)

func init() {
	lehmerPow[0] = 1
	for k := 1; k < lehmerSteps; k++ {
		lehmerPow[k] = mulMod(lehmerPow[k-1], lehmerA)
	}
	initCooked()
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹ by Mersenne folding.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// initCooked recovers rngCooked from the first 607 outputs y(1..607) of
// rand.NewSource(1), inverting the draw recurrence word by word: draws
// 274–607 read one unwritten word plus an earlier output (y(n−273)), which
// yields words 0–60 and 334–606; draws 1–273 read two unwritten words, one
// of them already known, which yields words 61–333. XOR-ing out the Lehmer
// part of each word for seed 1 leaves the table.
func initCooked() {
	ref := rand.NewSource(1).(rand.Source64)
	var y [rngLen + 1]int64
	for n := 1; n <= rngLen; n++ {
		y[n] = int64(ref.Uint64())
	}
	var word [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		word[feedIndex(n)] = y[n] - y[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		word[feedIndex(n)] = y[n] - word[rngLen-n]
	}
	for i := range rngCooked {
		rngCooked[i] = word[i] ^ lehmerWord(1, i)
	}
}

// feedIndex is the register index draw n (1-based, n ≤ 941) writes.
func feedIndex(n int) int {
	if n <= rngFeed {
		return rngFeed - n
	}
	return rngLen + rngFeed - n
}

// lehmerWord is the Lehmer part of register word i for the normalised seed
// x0 ∈ [1, 2³¹−2].
func lehmerWord(x0 uint64, i int) int64 {
	k := 21 + 3*i
	return int64(mulMod(x0, lehmerPow[k]))<<40 ^
		int64(mulMod(x0, lehmerPow[k+1]))<<20 ^
		int64(mulMod(x0, lehmerPow[k+2]))
}

// lazySource is a rand.Source64 yielding exactly rand.NewSource(seed)'s
// sequence. vec holds only the words written by earlier draws; unwritten
// words are computed from x0 when read, so Seed is O(1) and vec is never
// cleared.
type lazySource struct {
	x0        uint64
	n         int // draws since the last Seed
	tap, feed int
	vec       [rngLen]int64
}

// Seed normalises seed exactly as math/rand does.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.n, s.tap, s.feed = 0, 0, rngFeed
}

func (s *lazySource) word(i int) int64 { return lehmerWord(s.x0, i) ^ rngCooked[i] }

func (s *lazySource) Uint64() uint64 {
	s.n++
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	var x int64
	switch {
	case s.n > rngLen:
		x = s.vec[s.feed] + s.vec[s.tap]
	case s.n > rngTap:
		x = s.word(s.feed) + s.vec[s.tap]
	default:
		x = s.word(s.feed) + s.word(s.tap)
	}
	s.vec[s.feed] = x
	return uint64(x)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Stream is a reusable per-worker generator: Rand reseeds one *rand.Rand in
// place, drawing exactly the sequence SubRand would return for the same
// shard without allocating per shard. A Stream is not safe for concurrent
// use, and each Rand call invalidates the generator the previous one
// returned.
type Stream struct {
	src lazySource
	r   *rand.Rand
}

// NewStream returns a Stream ready for Rand.
func NewStream() *Stream {
	s := &Stream{}
	s.r = rand.New(&s.src)
	return s
}

// Rand reseeds the stream for the (point, trial) shard of a campaign seeded
// with seed and returns its generator.
func (s *Stream) Rand(seed int64, point, trial int) *rand.Rand {
	s.r.Seed(SubSeed(seed, point, trial))
	return s.r
}
