package search

// Match is one retrieved candidate — the paper's SignalArray entry
// [S, ω, β]: a signal-set, the normalized correlation at the matched
// offset, and the offset itself.
type Match struct {
	// SetID identifies the matched signal-set within the store.
	SetID int
	// Omega is the normalized cross-correlation at Beta.
	Omega float64
	// Beta is the matched offset within the signal-set.
	Beta int
}

// TopK is a bounded collection keeping the K best matches, implemented
// as a min-heap so insertion is O(log K) and the worst retained match is
// evicted first. Algorithm 1 keeps the top-100 (paper: T = top-100 of
// SignalArray).
//
// "Best" is one total order — ω descending, then SetID ascending, then
// Beta ascending (ranksBelow) — so what is retained, and the order
// SortedDesc returns it in, depend on the set of matches pushed and not
// on the order they arrived in: which of two equal-ω matches survives at
// the K boundary does not change with the shard partition or with the
// order the scan's lanes finish their sets.
type TopK struct {
	k     int
	items []Match // min-heap under ranksBelow: items[0] is the worst
}

// ranksBelow reports whether a is a worse match than b.
func ranksBelow(a, b Match) bool {
	if a.Omega != b.Omega {
		return a.Omega < b.Omega
	}
	if a.SetID != b.SetID {
		return a.SetID > b.SetID
	}
	return a.Beta > b.Beta
}

// NewTopK returns a collector retaining at most k matches (k ≥ 1). It
// starts empty and grows on demand: a scan makes one per unique query
// per shard, and a typical query retains a quarter of K or nothing.
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k}
}

// minTopKGrow is the room the first retained match makes; from there the
// heap doubles, never past K.
const minTopKGrow = 16

// Len returns the number of retained matches.
func (t *TopK) Len() int { return len(t.items) }

// Cap returns the retention bound K.
func (t *TopK) Cap() int { return t.k }

// Min returns the smallest retained ω, or -inf semantics via ok=false
// when empty.
func (t *TopK) Min() (float64, bool) {
	if len(t.items) == 0 {
		return 0, false
	}
	return t.items[0].Omega, true
}

// Push offers a match; it is retained if the collector is not full or
// if it ranks above the worst retained match.
func (t *TopK) Push(m Match) {
	if len(t.items) < t.k {
		if len(t.items) == cap(t.items) {
			grown := make([]Match, len(t.items), min(t.k, max(minTopKGrow, 2*cap(t.items))))
			copy(grown, t.items)
			t.items = grown
		}
		t.items = append(t.items, m)
		t.up(len(t.items) - 1)
		return
	}
	if !ranksBelow(t.items[0], m) {
		return
	}
	t.items[0] = m
	t.down(0)
}

// Merge absorbs all matches retained by other.
func (t *TopK) Merge(other *TopK) {
	for _, m := range other.items {
		t.Push(m)
	}
}

// SortedDesc returns the retained matches best first: descending ω,
// ties by ascending SetID, then Beta. The collector is unchanged.
func (t *TopK) SortedDesc() []Match {
	out := make([]Match, len(t.items))
	copy(out, t.items)
	// Heap-sort into descending order: repeatedly extract the min
	// into the tail.
	h := TopK{k: t.k, items: out}
	sorted := make([]Match, len(out))
	// Repeatedly extract the minimum into the tail: the result fills
	// from smallest (last index) to largest (index 0), i.e. descending.
	for i := len(sorted) - 1; i >= 0; i-- {
		sorted[i] = h.items[0]
		last := len(h.items) - 1
		h.items[0] = h.items[last]
		h.items = h.items[:last]
		if last > 0 {
			h.down(0)
		}
	}
	return sorted
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ranksBelow(t.items[i], t.items[parent]) {
			break
		}
		t.items[parent], t.items[i] = t.items[i], t.items[parent]
		i = parent
	}
}

func (t *TopK) down(i int) {
	n := len(t.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && ranksBelow(t.items[l], t.items[small]) {
			small = l
		}
		if r < n && ranksBelow(t.items[r], t.items[small]) {
			small = r
		}
		if small == i {
			return
		}
		t.items[i], t.items[small] = t.items[small], t.items[i]
		i = small
	}
}
