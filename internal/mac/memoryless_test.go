package mac

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// memorylessPolicy is a Memoryless implementer seen through both of its
// interfaces.
type memorylessPolicy interface {
	Policy
	Memoryless
}

// checkDiscardParity drives twin policies on twin RNGs through n draws.
// At every index in discard the first twin discards while the second
// draws and drops the variate; everywhere else both draw and must agree.
// Afterwards the two RNG streams must sit at the same position. setup,
// when non-nil, runs on both twins before draw i (parameter changes).
func checkDiscardParity(t *testing.T, mk func() memorylessPolicy, seed int64, n int,
	discard map[int]bool, setup func(i int, p memorylessPolicy)) {
	t.Helper()
	a, b := mk(), mk()
	ra, rb := sim.NewRNG(seed), sim.NewRNG(seed)
	for i := 0; i < n; i++ {
		if setup != nil {
			setup(i, a)
			setup(i, b)
		}
		if discard[i] {
			a.DiscardBackoff(ra)
			b.NextBackoff(rb)
			continue
		}
		if got, want := a.NextBackoff(ra), b.NextBackoff(rb); got != want {
			t.Fatalf("draw %d: after discards got %d, twin drew %d", i, got, want)
		}
	}
	if got, want := ra.Float64(), rb.Float64(); got != want {
		t.Fatalf("RNG streams diverged after %d draws: %v vs %v", n, got, want)
	}
}

func indexSet(idx ...int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

// DiscardBackoff followed by NextBackoff must return the variates two
// NextBackoff calls would: the engine's CTS→NAV handoff relies on it to
// keep fingerprints bit-identical.
func TestDiscardBackoffParity(t *testing.T) {
	policies := map[string]func() memorylessPolicy{
		"PPersistent": func() memorylessPolicy { return NewPPersistent(1, 0.07) },
		"EstimateN":   func() memorylessPolicy { return NewEstimateN(20, 10) },
	}
	cases := []struct {
		name    string
		n       int
		discard map[int]bool
	}{
		// A single discard in the middle of the first 64-draw batch.
		{"mid-batch", 40, indexSet(10)},
		// Discards on both sides of the FloatBatch refill: index 63 is the
		// last prefetched uniform, 64 forces the refill inside
		// DiscardBackoff, 127/128 repeat it at the next boundary.
		{"across-refill", 200, indexSet(62, 63, 64, 65, 127, 128)},
		// Discarding the very first draw binds the batch and fills it.
		{"first-draw", 10, indexSet(0)},
		// A long run of discards, as on a busy reservation path.
		{"run", 300, indexSet(5, 6, 7, 8, 9, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 200)},
	}
	for name, mk := range policies {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				checkDiscardParity(t, mk, 42, c.n, c.discard, nil)
			})
		}
	}
}

// The PPersistent log(1−p) cache is only refreshed by NextBackoff; a
// discard at a new p must not leave a stale cache behind for the next
// real draw.
func TestDiscardBackoffParityAcrossPChanges(t *testing.T) {
	mk := func() memorylessPolicy { return NewPPersistent(2, 0.05) }
	ps := []float64{0.05, 0.3, 0.05, 0.9, 0.001}
	setup := func(i int, p memorylessPolicy) {
		if i%7 == 0 {
			p.(*PPersistent).SetAttemptProbability(ps[(i/7)%len(ps)])
		}
	}
	checkDiscardParity(t, mk, 7, 150, indexSet(7, 14, 15, 21, 63, 64, 70, 98), setup)
}

// EstimateN draws through rng.Geometric, which takes no uniform at all
// for p ≥ 1 or p ≤ 0; DiscardBackoff must mirror those early returns
// exactly (and keep drawing for NaN, as Geometric does).
func TestDiscardBackoffEstimateNEdges(t *testing.T) {
	edges := []float64{1, 2, 0, -0.5, math.Nextafter(1, 0), math.SmallestNonzeroFloat64, math.NaN()}
	for _, p := range edges {
		mk := func() memorylessPolicy {
			e := NewEstimateN(20, 10)
			e.p = p
			return e
		}
		checkDiscardParity(t, mk, 11, 20, indexSet(0, 3, 4, 19), nil)
	}
	// Alternating between an edge and an interior p interleaves drawing
	// and non-drawing discards in one stream.
	mk := func() memorylessPolicy { return NewEstimateN(20, 10) }
	setup := func(i int, p memorylessPolicy) {
		e := p.(*EstimateN)
		switch i % 3 {
		case 0:
			e.p = 1
		case 1:
			e.p = 0
		default:
			e.p = 0.2
		}
	}
	checkDiscardParity(t, mk, 13, 60, indexSet(0, 1, 2, 9, 10, 11, 30, 31, 32), setup)
}
