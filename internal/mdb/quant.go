package mdb

import "emap/internal/proto"

// qBlockLen is the checkpoint interval of the quantized block prefix
// sums: one (Σc, Σc²) int64 pair is stored every qBlockLen counts, so
// any window's integer sums cost O(qBlockLen) partial additions plus
// two checkpoint subtractions, while the overhead stays at
// 16/qBlockLen = 0.25 bytes per sample. Full int64 prefix sums (16
// bytes per sample) would cost 8× the samples they describe and erase
// the compressed tier's footprint win — which is why the search
// builds them only transiently, for the one signal-set a worker is
// scanning (internal/search/walkquant.go), and why the scan's cost no
// longer depends on qBlockLen.
const qBlockLen = 64

// Tier is where a record's counts currently reside: warm records hold
// them in the heap, cold records serve them straight out of a
// memory-mapped columnar snapshot (the page cache is the only copy).
// Either way a scan reads the counts in place. See DESIGN.md §14 for the
// transition diagram.
type Tier int

const (
	// TierWarm: int16 counts + block sums resident in the heap
	// (2.25 bytes/sample) — where an inserted or eagerly loaded record
	// lives, and where a mapped one is copied to under a byte budget.
	TierWarm Tier = iota
	// TierCold: counts + block sums read from the mmap region of a
	// columnar snapshot (0 heap bytes/sample).
	TierCold
)

func (t Tier) String() string {
	switch t {
	case TierWarm:
		return "warm"
	case TierCold:
		return "cold"
	}
	return "unknown"
}

// quantPayload is a record's payload: the int16
// counts, the float32-narrowed µV-per-count step, and the block
// checkpoint sums. It is immutable after construction. The slices
// point either into the heap (ingest-born records) or into an mmap
// region (columnar snapshots); mref keeps the mapping alive for as
// long as any payload references it.
type quantPayload struct {
	scale  float64
	counts []int16
	bsum   []int64 // bsum[i] = Σ counts[:i·qBlockLen], len = nBlocks+1
	bsumSq []int64 // bsumSq[i] = Σ counts[:i·qBlockLen]², same length
	mapped bool
	mref   *mmapRef
}

// resident is one record's current resident representation, published
// through Record.res. Promotion and demotion swap the whole struct
// atomically, so a reader that loaded a resident keeps a coherent
// (tier, slices) pair however the record moves under it; heap slices
// stay live via GC and mapped slices via mref, so a demotion never
// invalidates an in-flight scan.
type resident struct {
	tier   Tier
	counts []int16
	bsum   []int64
	bsumSq []int64
	// heapCopy marks counts/bsum/bsumSq as a promoted heap copy of a
	// mapped payload — bytes the tier budget must account for.
	heapCopy bool
}

// newQuantPayload builds a heap-canonical payload from counts (which
// it does NOT copy — callers hand over ownership) and the float32 wire
// scale.
func newQuantPayload(counts []int16, scale float64) *quantPayload {
	bsum, bsumSq := blockSums(counts)
	return &quantPayload{scale: scale, counts: counts, bsum: bsum, bsumSq: bsumSq}
}

// blockSums computes the checkpoint prefix sums of counts.
func blockSums(counts []int16) (bsum, bsumSq []int64) {
	nb := len(counts) / qBlockLen
	bsum = make([]int64, nb+1)
	bsumSq = make([]int64, nb+1)
	var s, sq int64
	for i, c := range counts {
		if i%qBlockLen == 0 {
			bsum[i/qBlockLen], bsumSq[i/qBlockLen] = s, sq
		}
		v := int64(c)
		s += v
		sq += v * v
	}
	if len(counts)%qBlockLen == 0 {
		bsum[nb], bsumSq[nb] = s, sq
	}
	return bsum, bsumSq
}

// baseResident returns the payload's bottom-tier resident form.
func (q *quantPayload) baseResident() *resident {
	tier := TierWarm
	if q.mapped {
		tier = TierCold
	}
	return &resident{tier: tier, counts: q.counts, bsum: q.bsum, bsumSq: q.bsumSq}
}

// QuantView is the compressed-domain scan surface of one record: the
// int16 counts, the reconstruction step, and exact integer window
// sums. The integer arithmetic is exact, so every quantity a scan
// derives from a QuantView is a deterministic function of
// (counts, scale) — identical whether the counts live in the heap or
// in a memory map, which is what keeps tier moves invisible to search
// results.
type QuantView struct {
	Counts []int16
	Scale  float64
	bsum   []int64
	bsumSq []int64
}

// WindowSums returns (Σc, Σc²) over Counts[start:start+n], exactly,
// from the block checkpoints plus at most 2·qBlockLen edge additions
// — the one-off form. A scan that needs the sums of many windows of
// one region reads Counts and builds its own transient prefix sums
// instead (the search's segment scratch is tested equal to this).
func (qv QuantView) WindowSums(start, n int) (sum, sumSq int64) {
	end := start + n
	loBlk := (start + qBlockLen - 1) / qBlockLen // first checkpoint ≥ start
	hiBlk := end / qBlockLen                     // last checkpoint ≤ end
	if loBlk > hiBlk {
		// Window inside one block: sum directly.
		for _, c := range qv.Counts[start:end] {
			v := int64(c)
			sum += v
			sumSq += v * v
		}
		return sum, sumSq
	}
	sum = qv.bsum[hiBlk] - qv.bsum[loBlk]
	sumSq = qv.bsumSq[hiBlk] - qv.bsumSq[loBlk]
	for _, c := range qv.Counts[start : loBlk*qBlockLen] {
		v := int64(c)
		sum += v
		sumSq += v * v
	}
	for _, c := range qv.Counts[hiBlk*qBlockLen : end] {
		v := int64(c)
		sum += v
		sumSq += v * v
	}
	return sum, sumSq
}

// Dequantize writes the float64 reconstruction of
// Counts[start:start+n] into dst.
func (qv QuantView) Dequantize(dst []float64, start, n int) {
	s := qv.Scale
	src := qv.Counts[start : start+n]
	for i, c := range src {
		dst[i] = float64(c) * s
	}
}

// quantizeSamples quantizes a float64 waveform onto the shared
// float32-narrowed grid (see proto.NarrowScale), returning the counts
// and the step: how float samples become a record, at Insert, at Build
// and when a gob image that predates stored counts is loaded.
// Deterministic: the same samples always produce the same (counts,
// scale).
func quantizeSamples(samples []float64) ([]int16, float64) {
	var peak float64
	for _, v := range samples {
		a := v
		if a < 0 {
			a = -a
		}
		if a > peak {
			peak = a
		}
	}
	scale := proto.NarrowScale(peak)
	counts := make([]int16, len(samples))
	proto.QuantizeTo(counts, samples, scale)
	return counts, scale
}
