package search

import (
	"sort"
	"testing"
	"testing/quick"

	"emap/internal/rng"
)

func TestTopKOrdering(t *testing.T) {
	top := NewTopK(3)
	for _, w := range []float64{0.5, 0.9, 0.1, 0.7, 0.95, 0.3} {
		top.Push(Match{Omega: w})
	}
	got := top.SortedDesc()
	want := []float64{0.95, 0.9, 0.7}
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	for i, m := range got {
		if m.Omega != want[i] {
			t.Fatalf("position %d: ω=%g, want %g", i, m.Omega, want[i])
		}
	}
}

func TestTopKUnderfull(t *testing.T) {
	top := NewTopK(10)
	top.Push(Match{Omega: 0.2})
	top.Push(Match{Omega: 0.8})
	got := top.SortedDesc()
	if len(got) != 2 || got[0].Omega != 0.8 || got[1].Omega != 0.2 {
		t.Fatalf("underfull sort wrong: %v", got)
	}
}

func TestTopKMin(t *testing.T) {
	top := NewTopK(2)
	if _, ok := top.Min(); ok {
		t.Fatal("empty Min should report !ok")
	}
	top.Push(Match{Omega: 0.4})
	top.Push(Match{Omega: 0.9})
	if min, ok := top.Min(); !ok || min != 0.4 {
		t.Fatalf("Min = %g, %v", min, ok)
	}
	top.Push(Match{Omega: 0.6}) // evicts 0.4
	if min, _ := top.Min(); min != 0.6 {
		t.Fatalf("Min after eviction = %g, want 0.6", min)
	}
}

func TestTopKRejectsWorse(t *testing.T) {
	top := NewTopK(1)
	top.Push(Match{Omega: 0.9, SetID: 1})
	top.Push(Match{Omega: 0.5, SetID: 2})
	got := top.SortedDesc()
	if len(got) != 1 || got[0].SetID != 1 {
		t.Fatalf("worse match displaced better: %v", got)
	}
}

func TestTopKMerge(t *testing.T) {
	a, b := NewTopK(3), NewTopK(3)
	for _, w := range []float64{0.1, 0.5, 0.9} {
		a.Push(Match{Omega: w})
	}
	for _, w := range []float64{0.2, 0.6, 0.95} {
		b.Push(Match{Omega: w})
	}
	a.Merge(b)
	got := a.SortedDesc()
	want := []float64{0.95, 0.9, 0.6}
	for i := range want {
		if got[i].Omega != want[i] {
			t.Fatalf("merge position %d: %g, want %g", i, got[i].Omega, want[i])
		}
	}
}

func TestTopKMinCapacity(t *testing.T) {
	top := NewTopK(0)
	if top.Cap() != 1 {
		t.Fatalf("Cap = %d, want clamped to 1", top.Cap())
	}
}

// Property: TopK retains exactly the K largest values of any stream.
func TestTopKMatchesSortProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := 1 + r.Intn(20)
		n := r.Intn(200)
		vals := make([]float64, n)
		top := NewTopK(k)
		for i := range vals {
			vals[i] = r.Float64()
			top.Push(Match{Omega: vals[i], SetID: i})
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
		want := vals
		if len(want) > k {
			want = want[:k]
		}
		got := top.SortedDesc()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Omega != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKPushOrderIndependent: the collector ranks by one total order
// (ω descending, SetID ascending, Beta ascending), so any permutation of
// the same pushes — with ω values duplicated across sets and within a
// set, and K cutting through a run of equal ω — retains the same matches
// and returns them in the same order, directly or through Merge.
func TestTopKPushOrderIndependent(t *testing.T) {
	r := rng.New(29)
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(12)
		pushes := make([]Match, r.Intn(40))
		for i := range pushes {
			// Five distinct ω values over up to forty matches.
			pushes[i] = Match{Omega: 0.8 + 0.04*float64(r.Intn(5)), SetID: r.Intn(8), Beta: i}
		}
		want := append([]Match(nil), pushes...)
		sort.Slice(want, func(i, j int) bool { return ranksBelow(want[j], want[i]) })
		if len(want) > k {
			want = want[:k]
		}
		for perm := 0; perm < 6; perm++ {
			for i := len(pushes) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				pushes[i], pushes[j] = pushes[j], pushes[i]
			}
			whole, left, right := NewTopK(k), NewTopK(k), NewTopK(k)
			for i, m := range pushes {
				whole.Push(m)
				if i%2 == 0 {
					left.Push(m)
				} else {
					right.Push(m)
				}
			}
			left.Merge(right)
			for name, top := range map[string]*TopK{"pushed": whole, "merged": left} {
				got := top.SortedDesc()
				if len(got) != len(want) {
					t.Fatalf("trial %d %s: retained %d, want %d", trial, name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d %s permutation %d: position %d is %+v, want %+v", trial, name, perm, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func BenchmarkTopKPush(b *testing.B) {
	r := rng.New(1)
	top := NewTopK(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.Push(Match{Omega: r.Float64(), SetID: i})
	}
}
