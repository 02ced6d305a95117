package search

import (
	"emap/internal/kernel"
	"emap/internal/mdb"
)

// The pass over a record: the walk reads the record's int16 counts where
// they are — the warm heap, or the page cache behind a memory-mapped
// snapshot — and never builds a float copy of them, on a request path or
// under Exhaustive, whatever tier the record sits on. A (signal-set,
// length-group) pass sweeps its counts once, for the running Σc and Σc²
// a window's sums come from in O(1) (kernel.Widen, in vector registers
// where the platform has them) — transient, in the lane's own buffer,
// shared by every query of the batch. Every visited offset is then one
// exact integer dot against the query's counts and five float operations
// (kernel.Walk). Correctness rests on the sums being exact — integers
// within 2⁵³, which kernel.MaxWidenLen guarantees and mdb.MaxSliceLen
// enforces — and on Pearson's r not seeing the record's scale: ω over
// the counts is ω over the µV they stand for.

// segment is the stored side of one (signal-set, length-group) pass in
// the shape the step kernel reads: the window at offset β ∈ [0, maxOff]
// is the n counts from β of c — the record's, aliased — and sums[i]
// holds the running totals {Σ c[:i], Σ c[:i]²} its window sums come
// from, in the lane's buffer.
type segment struct {
	setID, n, maxOff int
	c                []int16
	sums             [][2]float64
}

// loadQuant makes l.seg the pass over counts, with their running totals
// in the lane's own buffer: the one sweep a pass over counts costs
// before it is walked.
func (l *lane) loadQuant(counts []int16) {
	// One slice and one query less a sample, each at most
	// mdb.MaxSliceLen: well inside what keeps the sums exact.
	if len(counts) >= 2*mdb.MaxSliceLen {
		panic("search: pass longer than a slice and a query can make it")
	}
	if cap(l.qsums) <= len(counts) {
		l.qsums = make([][2]float64, len(counts)+1)
	}
	sums := l.qsums[:len(counts)+1]
	kernel.Widen(sums, counts)
	l.seg = segment{c: counts, sums: sums}
}
