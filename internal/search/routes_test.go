package search

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"emap/internal/kernel"
)

// eachRoute runs body once per route of the walk's step this machine
// runs — the portable step and every vector route — as a subtest named
// for it, with that route forced (kernel.ForceRoute).
func eachRoute(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	for _, route := range kernel.Routes() {
		t.Run(route, func(t *testing.T) {
			defer kernel.ForceRoute(route)()
			body(t)
		})
	}
}

// matchesPin is the FNV-64a of what Algorithm 1 and the exhaustive
// baseline report over the standard fixture's battery (see
// TestMatchesPinnedOnEveryRoute).
const matchesPin = 0x796a25183c0cc11d

// TestMatchesPinnedOnEveryRoute folds every match Algorithm 1 and the
// exhaustive baseline report over syntheticInputs — per query the match
// count, then each match's SetID, β and the bits of its ω — into one
// FNV-64a, on every route this machine runs. Integer sums have no order,
// so no route, now or later, may move it by a bit; a change that means
// to move it must say why.
func TestMatchesPinnedOnEveryRoute(t *testing.T) {
	f := newFixture(t, 2)
	inputs := syntheticInputs(f)
	eachRoute(t, func(t *testing.T) {
		s := NewSearcher(f.store, Params{})
		h := fnv.New64a()
		put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		for _, scan := range []func([]float64) (*Result, error){s.Algorithm1, s.Exhaustive} {
			for _, in := range inputs {
				res, err := scan(in)
				if err != nil {
					t.Fatal(err)
				}
				put(uint64(len(res.Matches)))
				for _, m := range res.Matches {
					put(uint64(m.SetID))
					put(uint64(m.Beta))
					put(math.Float64bits(m.Omega))
				}
			}
		}
		if got := h.Sum64(); got != matchesPin {
			t.Fatalf("the battery's matches fold to %#016x, pinned %#016x", got, uint64(matchesPin))
		}
	})
}
