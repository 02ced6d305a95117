// Package mdb implements the mega-database (MDB) of the EMAP paper: a
// store of pre-processed EEG recordings sliced into labelled
// signal-sets that the cloud search scans in parallel.
//
// The paper hosts the MDB in MongoDB via pymongo; this package is the
// stdlib substitute. It provides the operations the framework actually
// uses — insert, label queries, shard-parallel full scans, and
// snapshot persistence — with the same access pattern. The paper's MDB
// is a live database: patients' recordings are continuously inserted
// while other patients' windows are being searched, so Insert is safe
// to call concurrently with any reader (see "Epoch snapshots" below),
// and a Registry manages one store per tenant (patient cohort) inside
// a single cloud process.
//
// # Signal-sets as views
//
// Paper §V-B slices every recording into signal-sets of 1000 samples.
// Taken literally, a tracked signal-set would be exhausted after three
// one-second tracking iterations (3×256 < 1000 < 4×256), contradicting
// the paper's "transmit to the cloud every five iterations". The MDB
// therefore stores each signal-set as a *view* (record ID, start,
// length) into its parent recording, and the edge tracker follows the
// parent recording past the slice end; a tracked signal dies only when
// its recording ends. Slice labelling still follows the paper exactly.
//
// # Epoch snapshots
//
// The store's records and signal-sets live on two append-only spines
// that only a writer (under the writer lock) extends. An epoch is a
// view: a prefix of each spine with its capacity clipped to its length
// (recs[:n:n]), published through an atomic pointer. A view never
// indexes past its own length and cannot be appended into, so the
// writer filling slot n and beyond never touches what a view can
// reach, and when a spine outgrows its array the older views simply
// keep the old one. A reader that captured a Snapshot — or called any
// accessor, each of which reads one coherent view — therefore walks a
// stable epoch for as long as it likes, undisturbed by concurrent
// inserts, and an insert costs O(the recording inserted), not O(the
// store). Readers never lock; writers serialise among themselves only.
//
// Record IDs resolve through one index shared by every epoch (see
// recIndex). It runs ahead of older epochs, so a hit counts only if
// the record sits at its own ordinal inside the view asking: a
// snapshot of epoch k never sees record k+1.
package mdb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"emap/internal/synth"
)

// SignalSet is the unit of cloud search: a labelled window into a
// stored recording (paper: S_P with attribute A(S_P)).
type SignalSet struct {
	// ID is unique within one store.
	ID int
	// RecordID names the parent recording.
	RecordID string
	// Start is the slice's offset within the parent recording.
	Start int
	// Length is the slice length in samples (paper: 1000).
	Length int
	// Anomalous is the paper's A(S_P): true for anomalous slices.
	Anomalous bool
	// Class is the clinical class of the parent recording; the
	// search algorithms only ever read Anomalous, but experiments
	// report per-class statistics.
	Class synth.Class
	// Archetype is the synth archetype of the parent recording
	// (evaluation bookkeeping only).
	Archetype int
}

// Record is a stored recording after MDB pre-processing: bandpass
// filtered and resampled to the 256 Hz base rate.
//
// A stored record is int16 counts and the µV one count stands for — the
// form the wire carries, the columnar snapshot holds and the search
// correlates over — resident in the heap (warm) or read in place from a
// memory-mapped snapshot (cold, see Tier). Whatever hands a record to a
// store ends there: Insert and Build quantize float samples as they
// enter, InsertQuantized takes counts as they arrived, both loaders
// produce counts. Readers go through Len, Quant and Snapshot.WindowInto.
type Record struct {
	ID        string
	Class     synth.Class
	Archetype int
	// Onset is the ictal onset sample at the base rate, or -1.
	Onset int
	// Samples is the processed waveform (µV, 256 Hz) as Preprocess
	// returns it: the input of Insert, which quantizes it and clears the
	// field. No stored record has it.
	Samples []float64

	// ord is the record's position on its store's record spine, set
	// once by the insert (or load) that adds it.
	ord int

	// The immutable payload, the current resident representation, the
	// owning store's residency manager, and the LRU stamp of the last
	// scan access: all set by the insert or load that stores the record.
	q       *quantPayload
	res     atomic.Pointer[resident]
	tiers   *tierState
	lastUse atomic.Int64
}

// Len returns the recording length in samples.
func (r *Record) Len() int {
	if r.q != nil {
		return len(r.q.counts)
	}
	return len(r.Samples) // not stored yet
}

// Tier reports a stored record's current resident tier.
func (r *Record) Tier() Tier { return r.res.Load().tier }

// Quant returns the scan view of a stored record: its counts where they
// currently reside, and its scale.
func (r *Record) Quant() QuantView {
	res := r.res.Load()
	return QuantView{Counts: res.counts, Scale: r.q.scale, bsum: res.bsum, bsumSq: res.bsumSq}
}

// Touch records a scan access for tier-residency purposes: it bumps
// the record's LRU stamp and may opportunistically promote a mapped
// record to a heap copy when the store's byte budget has headroom.
// Scans call it once per (record, batch) visit.
func (r *Record) Touch() { r.tiers.touch(r) }

// view is one immutable epoch of a store: capacity-clipped prefixes of
// the store's spines. Once published via Store.v, a view and everything
// reachable from it is never mutated.
type view struct {
	recs []*Record // insertion order
	sets []*SignalSet
	ix   *recIndex
	// totalSamples is Σ Len over records, computed at view
	// construction: TotalSamples sits on status/metrics paths, which
	// must not re-sum every record per call.
	totalSamples int
}

var emptyView = &view{ix: new(recIndex)}

// record resolves id within this epoch. The shared index may already
// hold records newer than the view (or, between a store and its
// SubsetSets, a sibling's); only a record found at its own ordinal on
// this view's spine belongs to the epoch.
func (v *view) record(id string) (*Record, bool) {
	if x, ok := v.ix.m.Load(id); ok {
		if rec := x.(*Record); rec.ord < len(v.recs) && v.recs[rec.ord] == rec {
			return rec, true
		}
	}
	return nil, false
}

// recIndex is the record ID → *Record index shared by all epochs of a
// store and by the stores derived from it (SubsetSets). Reads are
// lock-free; an ID enters once, under wmu, and never leaves.
type recIndex struct {
	wmu sync.Mutex // serialises the writers of every store sharing the index
	m   sync.Map
}

// Store is the mega-database. All readers are lock-free and see a
// coherent epoch per call; Insert may run concurrently with any number
// of readers, including in-flight shard scans (see the package
// comment).
type Store struct {
	ix *recIndex
	// recs and sets are the append-only spines at full capacity and
	// total is Σ Len over recs, all guarded by ix.wmu; readers only
	// ever see the clipped prefixes publish hands out.
	recs  []*Record
	sets  []*SignalSet
	total int
	v     atomic.Pointer[view]

	// tiers manages record residency; shared with derived stores
	// (SubsetSets) because they share records.
	tiers *tierState
	// format is the snapshot format SaveFile writes; set at
	// construction/load, immutable afterwards.
	format Format
}

// NewStore returns an empty mega-database whose SaveFile writes gob
// snapshots.
func NewStore() *Store {
	s := &Store{ix: new(recIndex), tiers: newTierState(), format: FormatGob}
	s.publish()
	return s
}

// NewQuantizedStore returns an empty mega-database whose SaveFile
// writes columnar snapshots — the one way it differs from NewStore:
// every store keeps its records as int16 counts.
func NewQuantizedStore() *Store {
	s := NewStore()
	s.format = FormatColumnar
	return s
}

// publish makes the spines' current extent the store's epoch. Caller
// holds ix.wmu (or owns a store nobody else can reach yet).
func (s *Store) publish() {
	s.v.Store(&view{
		recs:         s.recs[:len(s.recs):len(s.recs)],
		sets:         s.sets[:len(s.sets):len(s.sets)],
		ix:           s.ix,
		totalSamples: s.total,
	})
}

// add makes q the payload of rec, hands rec to the residency manager,
// appends it to the record spine and enters it in the index. Caller
// holds ix.wmu and has checked the ID is new.
func (s *Store) add(rec *Record, q *quantPayload) {
	rec.q, rec.tiers = q, s.tiers
	rec.res.Store(q.baseResident())
	s.tiers.register(rec)
	rec.ord = len(s.recs)
	s.recs = append(s.recs, rec)
	s.total += rec.Len()
	s.ix.m.Store(rec.ID, rec)
}

// Format returns the snapshot format SaveFile writes for this store.
func (s *Store) Format() Format { return s.format }

// SetTierBudget caps the bytes records may hold PROMOTED above their
// payload: warm heap copies of memory-mapped counts. 0 removes the cap
// and disables promotion. Lowering the budget below what is promoted
// demotes the least-recently-scanned records; a scan access promotes
// only into headroom, so the budget is never overshot.
func (s *Store) SetTierBudget(bytes int64) { s.tiers.setBudget(bytes) }

// TierStats reports the current epoch's per-tier resident footprint
// and the store's lifetime promotion/demotion counts.
func (s *Store) TierStats() TierStats { return s.tiers.stats(s.v.Load()) }

// Snapshot captures the store's current epoch. The snapshot is
// immutable: searches that must see one coherent database state
// capture a snapshot once and read everything through it, while the
// store keeps ingesting.
func (s *Store) Snapshot() Snapshot {
	return Snapshot{v: s.v.Load()}
}

// Insert adds a processed recording and slices it into signal-sets of
// sliceLen samples (non-overlapping, per paper Fig. 3 "Signal
// Slicing"). labelFn decides A(S_P) for a slice given its start
// offset. Insert returns the number of signal-sets created. It is safe
// to call while searches are scanning: in-flight readers keep their
// epoch, later readers see the grown database. An Insert appends to the
// store's spines and publishes a new view of them: its cost is that of
// the recording (quantizing, slicing), whatever the store already
// holds. rec.Samples is quantized onto the shared grid (quantizeSamples,
// what SaveFileFormat(columnar) has always applied) and cleared: the
// counts are the record from then on, and it belongs to the one store it
// was inserted into.
func (s *Store) Insert(rec *Record, sliceLen int, labelFn func(start int) bool) (int, error) {
	return s.insertBatch([]insertion{{rec: rec, sliceLen: sliceLen, labelFn: labelFn}})
}

// InsertQuantized adds a recording that is already int16 counts on the
// float32 wire scale (see proto.Quantize) — the zero-copy ingest path:
// the counts that arrived on the wire ARE the stored data. rec.Samples
// must be nil; counts ownership passes to the store.
func (s *Store) InsertQuantized(rec *Record, counts []int16, scale float32, sliceLen int, labelFn func(start int) bool) (int, error) {
	if rec != nil && rec.Samples != nil {
		return 0, fmt.Errorf("mdb: InsertQuantized record must not carry float samples")
	}
	return s.insertBatch([]insertion{{rec: rec, counts: counts, scale: float64(scale), sliceLen: sliceLen, labelFn: labelFn}})
}

// MaxSliceLen is the longest signal-set a store admits. A scan keeps a
// pass's running Σc and Σc² as float64, which is exact only while a
// pass — one slice plus one query, less a sample — stays within
// kernel.MaxWidenLen = 2²³ counts; Insert, InsertQuantized and both
// loaders refuse longer slices, and the search refuses
// longer queries, which keeps a pass under 2²¹. (The paper's slices are
// 1 000 samples.)
const MaxSliceLen = 1 << 20

// insertion is one recording queued for insertBatch plus its slicing
// and labelling rule. With counts nil the record's Samples are quantized
// once the batch is known to be valid.
type insertion struct {
	rec      *Record
	counts   []int16
	scale    float64
	sliceLen int
	labelFn  func(start int) bool
}

// insertBatch adds many recordings as ONE epoch. The whole batch is
// validated — IDs, slice lengths, duplicates against the store and
// within the batch — before anything is touched: on an error nothing
// is published, registered or mutated. Returns the total number of
// signal-sets created.
func (s *Store) insertBatch(items []insertion) (int, error) {
	s.ix.wmu.Lock()
	defer s.ix.wmu.Unlock()
	var batch map[string]struct{}
	if len(items) > 1 {
		batch = make(map[string]struct{}, len(items))
	}
	for _, it := range items {
		if it.rec == nil || it.rec.ID == "" {
			return 0, fmt.Errorf("mdb: record must have an ID")
		}
		if it.sliceLen < 1 || it.sliceLen > MaxSliceLen {
			return 0, fmt.Errorf("mdb: slice length %d invalid (want 1 to %d)", it.sliceLen, MaxSliceLen)
		}
		// Under wmu the index holds exactly the IDs ever inserted.
		_, dup := s.ix.m.Load(it.rec.ID)
		if !dup && batch != nil {
			_, dup = batch[it.rec.ID]
			batch[it.rec.ID] = struct{}{}
		}
		if dup {
			return 0, fmt.Errorf("mdb: duplicate record ID %q", it.rec.ID)
		}
	}

	created := 0
	for _, it := range items {
		rec := it.rec
		if it.counts == nil {
			it.counts, it.scale = quantizeSamples(rec.Samples)
			rec.Samples = nil
		}
		s.add(rec, newQuantPayload(it.counts, it.scale))
		for start := 0; start+it.sliceLen <= rec.Len(); start += it.sliceLen {
			anomalous := false
			if it.labelFn != nil {
				anomalous = it.labelFn(start)
			}
			s.sets = append(s.sets, &SignalSet{
				ID:        len(s.sets),
				RecordID:  rec.ID,
				Start:     start,
				Length:    it.sliceLen,
				Anomalous: anomalous,
				Class:     rec.Class,
				Archetype: rec.Archetype,
			})
			created++
		}
	}
	s.publish()
	return created, nil
}

// Record returns the recording with the given ID.
func (s *Store) Record(id string) (*Record, bool) { return s.Snapshot().Record(id) }

// Sets returns all signal-sets in insertion order, as of the current
// epoch. The returned slice is immutable; callers must not mutate it.
func (s *Store) Sets() []*SignalSet { return s.Snapshot().Sets() }

// NumSets returns the number of signal-sets.
func (s *Store) NumSets() int { return s.Snapshot().NumSets() }

// NumRecords returns the number of stored recordings.
func (s *Store) NumRecords() int { return s.Snapshot().NumRecords() }

// LabelCounts returns the number of normal and anomalous signal-sets.
func (s *Store) LabelCounts() (normal, anomalous int) { return s.Snapshot().LabelCounts() }

// SetsByLabel returns the signal-sets with the given label.
func (s *Store) SetsByLabel(anomalous bool) []*SignalSet { return s.Snapshot().SetsByLabel(anomalous) }

// Shards partitions the signal-sets into k contiguous shards for
// parallel scanning. The shards belong to one epoch; a concurrent
// Insert does not disturb them. Callers that also need Record/Window
// lookups consistent with the shards should capture a Snapshot and
// call everything on it.
func (s *Store) Shards(k int) [][]*SignalSet { return s.Snapshot().Shards(k) }

// Window reads n samples of the signal-set's parent recording starting
// at the given offset *relative to the slice start*. Offsets may run
// past the slice end (view semantics, see the package comment); ok is
// false once the window would run past the end of the recording.
func (s *Store) Window(set *SignalSet, offset, n int) ([]float64, bool) {
	return s.Snapshot().Window(set, offset, n)
}

// TotalSamples returns the total number of stored samples across all
// recordings.
func (s *Store) TotalSamples() int { return s.Snapshot().TotalSamples() }

// SubsetSets returns a store sharing this store's recordings but
// exposing only the first n signal-sets. It is used by experiments
// that sweep the search-space size (Fig. 7b) without rebuilding
// recordings. The subset is read-only by convention.
func (s *Store) SubsetSets(n int) *Store {
	cur := s.v.Load()
	if n > len(cur.sets) {
		n = len(cur.sets)
	}
	if n < 0 {
		n = 0
	}
	// Shared records stay under the parent's index and residency
	// manager. The spines start as the epoch's clipped prefixes, so an
	// insert into either store reallocates rather than writing where
	// the other can see.
	sub := &Store{ix: s.ix, recs: cur.recs, sets: cur.sets[:n:n], total: cur.totalSamples,
		tiers: s.tiers, format: s.format}
	sub.publish()
	return sub
}

// RecordIDs returns the stored recording IDs in insertion order.
func (s *Store) RecordIDs() []string { return s.Snapshot().RecordIDs() }

// Snapshot is an immutable point-in-time view of a Store: the set and
// record slices and everything they reach belong to one epoch and
// never change. A shard scan that captures a snapshot is therefore
// unaffected by concurrent Inserts, however long it runs.
type Snapshot struct {
	v *view
}

// ensure guards the zero Snapshot so accidental zero values behave as
// an empty database instead of panicking.
func (sn Snapshot) ensure() *view {
	if sn.v == nil {
		return emptyView
	}
	return sn.v
}

// Record returns the recording with the given ID in this epoch.
func (sn Snapshot) Record(id string) (*Record, bool) {
	return sn.ensure().record(id)
}

// Sets returns this epoch's signal-sets in insertion order. The slice
// is immutable and at full capacity: appending to it copies.
func (sn Snapshot) Sets() []*SignalSet { return sn.ensure().sets }

// NumSets returns the number of signal-sets in this epoch.
func (sn Snapshot) NumSets() int { return len(sn.ensure().sets) }

// NumRecords returns the number of recordings in this epoch.
func (sn Snapshot) NumRecords() int { return len(sn.ensure().recs) }

// LabelCounts returns the number of normal and anomalous signal-sets.
func (sn Snapshot) LabelCounts() (normal, anomalous int) {
	for _, set := range sn.ensure().sets {
		if set.Anomalous {
			anomalous++
		} else {
			normal++
		}
	}
	return normal, anomalous
}

// SetsByLabel returns the signal-sets with the given label.
func (sn Snapshot) SetsByLabel(anomalous bool) []*SignalSet {
	var out []*SignalSet
	for _, set := range sn.ensure().sets {
		if set.Anomalous == anomalous {
			out = append(out, set)
		}
	}
	return out
}

// Shards partitions this epoch's signal-sets into k contiguous shards
// for parallel scanning (paper: "to enable the search algorithm to
// quickly search through the complete database in parallel").
func (sn Snapshot) Shards(k int) [][]*SignalSet {
	sets := sn.ensure().sets
	if k < 1 {
		k = 1
	}
	n := len(sets)
	if k > n {
		k = n
	}
	if n == 0 {
		return nil
	}
	out := make([][]*SignalSet, 0, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		if lo < hi {
			out = append(out, sets[lo:hi])
		}
	}
	return out
}

// Window reads n samples of the signal-set's parent recording starting
// at the given offset relative to the slice start (view semantics; see
// the package comment), dequantized into a fresh slice.
func (sn Snapshot) Window(set *SignalSet, offset, n int) ([]float64, bool) {
	var buf []float64
	return sn.WindowInto(&buf, set, offset, n)
}

// WindowInto is Window with the dequantization buffer the caller's: the
// window is written to (*buf)[:n] — *buf is grown first when it is
// short — so a caller that reads many windows and keeps none (the edge
// tracker, a step per tracked signal) allocates once, not once per
// window. The result is valid only until the next WindowInto with the
// same buffer.
func (sn Snapshot) WindowInto(buf *[]float64, set *SignalSet, offset, n int) ([]float64, bool) {
	rec, exists := sn.ensure().record(set.RecordID)
	if !exists {
		return nil, false
	}
	abs := set.Start + offset
	if abs < 0 || n < 0 || abs+n > rec.Len() {
		return nil, false
	}
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	out := (*buf)[:n]
	QuantView{Counts: rec.res.Load().counts, Scale: rec.q.scale}.Dequantize(out, abs, n)
	return out, true
}

// TotalSamples returns the total number of stored samples across all
// recordings in this epoch. The sum is computed once at view
// construction — this is an O(1) read, safe on hot status paths.
func (sn Snapshot) TotalSamples() int {
	return sn.ensure().totalSamples
}

// RecordIDs returns this epoch's recording IDs in insertion order.
func (sn Snapshot) RecordIDs() []string {
	recs := sn.ensure().recs
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = rec.ID
	}
	return out
}
