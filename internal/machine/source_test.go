package machine

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's seed normalization changes
// course: zero and its replacement, signs, the modulus 2^31−1 and its
// neighbours, and the int64 extremes (SeedZero is math.MinInt64).
var edgeSeeds = []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), math.MinInt64, math.MaxInt64}

// sameDraws makes n draws from got and want, mixing Intn over
// power-of-two and other bounds (both below and above 2^31, which take
// different paths in math/rand) with Float64, and fails at the first
// difference.
func sameDraws(t *testing.T, seed int64, n int, got, want *rand.Rand) {
	t.Helper()
	bounds := []int{2, 3, 8, 607, 1 << 20, 1000003, 1 << 40, 3 << 33}
	for k := 0; k < n; k++ {
		if k%3 == 2 {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, draw %d: Float64 %v, math/rand %v", seed, k, g, w)
			}
			continue
		}
		b := bounds[k%len(bounds)]
		if g, w := got.Intn(b), want.Intn(b); g != w {
			t.Fatalf("seed %d, draw %d: Intn(%d) %d, math/rand %d", seed, k, b, g, w)
		}
	}
}

// TestRandomSourceMatchesMathRand: the lazily seeded source yields
// exactly rand.NewSource(seed)'s stream, fresh and after a reseed, and a
// RandomStrategy reseeded with Reset draws exactly what a
// rand.New(rand.NewSource(seed)) draws. Each edge seed draws well past
// two laps of the 607-word generator, and each of 10,000 consecutive
// seeds just past two, so every word is derived, then overwritten and
// read again.
func TestRandomSourceMatchesMathRand(t *testing.T) {
	src := new(exactSource)
	for _, seed := range edgeSeeds {
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 0; k < 3*rngLen; k++ {
			if g, w := src.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, value %d: %#x, math/rand %#x", seed, k, g, w)
			}
		}
	}
	strat := NewRandomBiased(7, 0.5)
	for _, seed := range edgeSeeds {
		strat.Reset(seed)
		sameDraws(t, seed, 5000, strat.rng, rand.New(rand.NewSource(seed)))
	}
	for seed := int64(-5000); seed < 5000; seed++ {
		strat.Reset(seed)
		sameDraws(t, seed, 2*rngLen+10, strat.rng, rand.New(rand.NewSource(seed)))
	}
	fresh := NewRandomBiased(-3, 0.5)
	sameDraws(t, -3, 2*rngLen+1, fresh.rng, rand.New(rand.NewSource(-3)))
}

// TestRandomStrategyReset: a reseeded strategy makes the decisions of a
// fresh one with the same seed and bias, and reseeding allocates
// nothing.
func TestRandomStrategyReset(t *testing.T) {
	strat := NewRandomBiased(99, 0.7)
	runnable := []int{0, 1, 2}
	for seed := int64(0); seed < 200; seed++ {
		fresh := NewRandomBiased(seed, 0.7)
		strat.Reset(seed)
		for k := 0; k < 100; k++ {
			if g, w := strat.PickThread(runnable), fresh.PickThread(runnable); g != w {
				t.Fatalf("seed %d, decision %d: reseeded picked thread %d, fresh %d", seed, k, g, w)
			}
			if g, w := strat.Choose(5), fresh.Choose(5); g != w {
				t.Fatalf("seed %d, decision %d: reseeded chose %d, fresh %d", seed, k, g, w)
			}
		}
	}
	seed := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() { seed++; strat.Reset(seed) }); allocs != 0 {
		t.Fatalf("Reset allocates %v times per call, want 0", allocs)
	}
}
