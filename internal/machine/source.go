package machine

import "math/rand"

// The random strategies draw from math/rand's additive lagged Fibonacci
// generator, seeded exactly as rand.NewSource seeds it, so every seed
// keeps selecting the execution it always selected: failing seeds in
// reports, -explain replays and random checkpoints (which resume by
// seed index) stay valid.
//
// rand.NewSource fills the generator's 607 words by running a Lehmer
// generator, x ← 48271·x mod 2^31−1, for 1,841 steps, and XORs each word
// with a fixed seeding table. That costs more than a short execution.
// Word i depends only on steps 21+3i, 22+3i and 23+3i of the sequence,
// and step n is s·48271^n mod 2^31−1 for the normalized seed s, so
// exactSource derives each word from a table of powers when the stream
// first reads it. Seeding is then O(1), and so is every draw.
const (
	rngLen  = 607
	rngTap  = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
)

var (
	// rngPow[i] is 48271^(21+3i) mod 2^31−1.
	rngPow [rngLen]uint64
	// rngCooked is the table rand.NewSource XORs into its seeded words.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = p * lehmerA % lehmerM
	}
	for i := range rngPow {
		rngPow[i] = p
		p = p * lehmerA % lehmerM * lehmerA % lehmerM * lehmerA % lehmerM
	}
	// Recover the seeded words of a real source from its first 607
	// outputs. Output k (from 1) adds word 607−k, the tap, into word
	// (334−k) mod 607, the feed, and returns the sum. Every feed is still
	// a seeded word. The first 273 taps are seeded words too; every later
	// tap is the word output k−273 overwrote.
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var seeded [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		seeded[(2*rngLen-rngTap-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		seeded[rngLen-rngTap-k] = out[k] - seeded[rngLen-k]
	}
	for i, w := range seeded {
		rngCooked[i] = w ^ lehmerWord(1, i)
	}
}

// lehmerWord is word i of a generator seeded with the normalized seed s,
// before the seeding table is applied: steps 21+3i to 23+3i of the
// Lehmer sequence from s, shifted together.
func lehmerWord(s uint64, i int) uint64 {
	x1 := s * rngPow[i] % lehmerM
	x2 := x1 * lehmerA % lehmerM
	x3 := x2 * lehmerA % lehmerM
	return x1<<40 ^ x2<<20 ^ x3
}

// exactSource produces exactly rand.NewSource(seed)'s stream, deriving
// each seeded word on first use. A word is current for this seed when
// its stamp equals gen, so a reseed only bumps gen.
type exactSource struct {
	tap, feed int
	seed      uint64 // normalized, in [1, 2^31−2]
	gen       uint32
	stamp     [rngLen]uint32
	vec       [rngLen]uint64
}

// Seed starts the stream of rand.NewSource(seed).
func (r *exactSource) Seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	r.seed = uint64(seed)
	if r.gen++; r.gen == 0 {
		// After 2^32 seeds an old stamp would look current again.
		clear(r.stamp[:])
		r.gen = 1
	}
}

// word returns word i of the generator, deriving it if this seed's
// stream has not read it yet.
func (r *exactSource) word(i int) uint64 {
	if r.stamp[i] != r.gen {
		r.stamp[i], r.vec[i] = r.gen, lehmerWord(r.seed, i)^rngCooked[i]
	}
	return r.vec[i]
}

// Uint64 returns the next value of the stream.
func (r *exactSource) Uint64() uint64 {
	if r.tap--; r.tap < 0 {
		r.tap += rngLen
	}
	if r.feed--; r.feed < 0 {
		r.feed += rngLen
	}
	x := r.word(r.feed) + r.word(r.tap)
	r.vec[r.feed] = x
	return x
}

// Int63 returns the next value of the stream without its top bit.
func (r *exactSource) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }
