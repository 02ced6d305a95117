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

	"emap/internal/dsp"
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
// A record's canonical payload is either float64 (legacy stores, gob
// snapshots) or quantized int16 + scale (quantized ingest, columnar
// snapshots). Float-canonical records are permanently hot; quantized
// records move between the hot/warm/cold tiers (see Tier) and serve
// samples through Len/Float/Stats/Quant rather than the Samples field.
type Record struct {
	ID        string
	Class     synth.Class
	Archetype int
	// Onset is the ictal onset sample at the base rate, or -1.
	Onset int
	// Samples is the processed waveform (µV, 256 Hz) of a
	// float-canonical record; nil when the record is quantized. Callers
	// that must work across both kinds use Len/Float/Stats.
	Samples []float64

	stats *dsp.SlidingStats
	// ord is the record's position on its store's record spine, set
	// once by the insert (or load) that adds it.
	ord int

	// Quantized records only: the immutable canonical payload, the
	// current resident representation, the owning store's residency
	// manager, and the LRU stamp of the last scan access.
	q       *quantPayload
	res     atomic.Pointer[resident]
	tiers   *tierState
	lastUse atomic.Int64
}

// Len returns the recording length in samples, whatever the canonical
// payload.
func (r *Record) Len() int {
	if r.q != nil {
		return len(r.q.counts)
	}
	return len(r.Samples)
}

// Tier reports the record's current resident tier. Float-canonical
// records are permanently hot.
func (r *Record) Tier() Tier {
	if r.q == nil {
		return TierHot
	}
	return r.res.Load().tier
}

// Quant returns the compressed-domain scan view of a quantized record.
// ok is false for float-canonical records, which have no quantized
// payload.
func (r *Record) Quant() (QuantView, bool) {
	if r.q == nil {
		return QuantView{}, false
	}
	res := r.res.Load()
	return QuantView{Counts: res.counts, Scale: r.q.scale, bsum: res.bsum, bsumSq: res.bsumSq}, true
}

// Stats returns the recording's sliding-window statistics, used by the
// search to normalise windows in O(1). For a quantized record this
// forces promotion to the hot tier (the stats are float-domain derived
// data); compressed-domain scans use Quant instead.
func (r *Record) Stats() *dsp.SlidingStats {
	if r.q == nil {
		return r.stats
	}
	return r.tiers.ensureHot(r).stats
}

// Float returns the float64 waveform, promoting a quantized record to
// the hot tier.
func (r *Record) Float() []float64 {
	if r.q == nil {
		return r.Samples
	}
	return r.tiers.ensureHot(r).f
}

// Touch records a scan access for tier-residency purposes: it bumps
// the record's LRU stamp and may opportunistically promote it one tier
// when the store's byte budget has headroom. Scans call it once per
// (record, batch) visit.
func (r *Record) Touch() {
	if r.tiers != nil {
		r.tiers.touch(r)
	}
}

// floatSamples returns the float64 waveform without caching a
// promotion: the hot representation if one exists, otherwise a fresh
// dequantized copy. Persistence uses it so saving a cold store does
// not blow the tier budget.
func (r *Record) floatSamples() []float64 {
	if r.q == nil {
		return r.Samples
	}
	if res := r.res.Load(); res.tier == TierHot {
		return res.f
	}
	return r.q.dequantizeAll()
}

// view is one immutable epoch of a store: capacity-clipped prefixes of
// the store's spines. Once published via Store.v, a view and everything
// reachable from it is never mutated.
type view struct {
	recs []*Record // insertion order
	sets []*SignalSet
	ix   *recIndex
	// totalSamples is Σ len(Samples) over records, computed at view
	// construction: TotalSamples sits on status/metrics paths, which
	// must not re-sum every record per call.
	totalSamples int
	// quantRecs counts the records that carry int16 counts: what tells a
	// scan which forms of a query this epoch needs.
	quantRecs int
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
	quant int // records among recs that carry int16 counts
	v     atomic.Pointer[view]

	// tiers manages quantized-record residency; shared with derived
	// stores (SubsetSets) because they share records.
	tiers *tierState
	// quantized marks stores whose ingested records are stored in
	// int16 canonical form (columnar loads, NewQuantizedStore).
	quantized bool
	// format is the snapshot format SaveFile writes; set at
	// construction/load, immutable afterwards.
	format Format
}

// NewStore returns an empty mega-database with float64-canonical
// records and gob snapshots — the legacy configuration.
func NewStore() *Store {
	s := &Store{ix: new(recIndex), tiers: newTierState(), format: FormatGob}
	s.publish()
	return s
}

// NewQuantizedStore returns an empty mega-database that keeps ingested
// records in int16 canonical form (see InsertQuantized) and persists
// columnar snapshots.
func NewQuantizedStore() *Store {
	s := NewStore()
	s.quantized = true
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
		quantRecs:    s.quant,
	})
}

// add appends rec to the record spine and enters it in the index.
// Caller holds ix.wmu and has checked the ID is new.
func (s *Store) add(rec *Record) {
	rec.ord = len(s.recs)
	s.recs = append(s.recs, rec)
	s.total += rec.Len()
	if rec.q != nil {
		s.quant++
	}
	s.ix.m.Store(rec.ID, rec)
}

// Quantized reports whether the store keeps ingested records in int16
// canonical form.
func (s *Store) Quantized() bool { return s.quantized }

// Format returns the snapshot format SaveFile writes for this store.
func (s *Store) Format() Format { return s.format }

// SetTierBudget caps the bytes quantized records may hold PROMOTED
// above their canonical payload (hot float materialisations, warm heap
// copies of mapped data). 0 removes the cap and disables opportunistic
// promotion. Exceeding the budget demotes the least-recently-scanned
// records; a forced promotion (float access to a cold record) may
// overshoot by at most that one record.
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
// the recording (statistics, slicing), whatever the store already
// holds. A Record belongs to the one store it was inserted into.
func (s *Store) Insert(rec *Record, sliceLen int, labelFn func(start int) bool) (int, error) {
	return s.insertBatch([]insertion{{rec: rec, sliceLen: sliceLen, labelFn: labelFn}})
}

// InsertQuantized adds a recording whose canonical payload is the
// given int16 counts on the float32 wire scale (see proto.Quantize) —
// the zero-copy ingest path for quantized stores: the counts that
// arrived on the wire ARE the stored data, so the record dequantizes
// to exactly what the legacy dequantize-then-Insert path would have
// stored, at a quarter of the resident bytes. rec.Samples must be nil;
// counts ownership passes to the store.
func (s *Store) InsertQuantized(rec *Record, counts []int16, scale float32, sliceLen int, labelFn func(start int) bool) (int, error) {
	if rec != nil && rec.Samples != nil {
		return 0, fmt.Errorf("mdb: InsertQuantized record must not carry float samples")
	}
	return s.insertBatch([]insertion{{rec: rec, counts: counts, scale: float64(scale), sliceLen: sliceLen, labelFn: labelFn}})
}

// MaxSliceLen is the longest signal-set a store admits. A compressed-
// domain scan keeps a pass's running Σc and Σc² as float64, which is
// exact only while a pass — one slice plus one query, less a sample —
// stays within kernel.MaxWidenLen = 2²³ counts; Insert, InsertQuantized
// and the columnar loader refuse longer slices, and the search refuses
// longer queries, which keeps a pass under 2²¹. (The paper's slices are
// 1 000 samples.)
const MaxSliceLen = 1 << 20

// insertion is one recording queued for insertBatch plus its slicing
// and labelling rule. counts non-nil marks a quantized insertion.
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
		if it.counts != nil {
			rec.q = newQuantPayload(it.counts, it.scale)
			rec.res.Store(rec.q.baseResident())
			rec.tiers = s.tiers
			s.tiers.register(rec)
		} else {
			rec.stats = dsp.NewSlidingStats(rec.Samples)
		}
		s.add(rec)
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
	sub := &Store{ix: s.ix, recs: cur.recs, sets: cur.sets[:n:n], total: cur.totalSamples, quant: cur.quantRecs,
		tiers: s.tiers, quantized: s.quantized, format: s.format}
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

// NumQuantized returns how many of this epoch's recordings carry int16
// counts (Record.Quant reports ok); the rest are float-canonical.
func (sn Snapshot) NumQuantized() int { return sn.ensure().quantRecs }

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
// the package comment). For a quantized record that is not hot, the
// window is dequantized into a fresh slice without promoting the
// record; hot and float-canonical records return a view into the
// resident waveform.
func (sn Snapshot) Window(set *SignalSet, offset, n int) ([]float64, bool) {
	var buf []float64
	return sn.WindowInto(&buf, set, offset, n)
}

// WindowInto is Window with the dequantization buffer the caller's: a
// window that has to be dequantized is written to (*buf)[:n] — *buf is
// grown first when it is short — so a caller that reads many windows and
// keeps none (the cloud's reply assembly) allocates once, not once per
// window. Hot and float-canonical records still return a view into the
// resident waveform and leave *buf alone; either way the result is valid
// only until the next WindowInto with the same buffer.
func (sn Snapshot) WindowInto(buf *[]float64, set *SignalSet, offset, n int) ([]float64, bool) {
	rec, exists := sn.ensure().record(set.RecordID)
	if !exists {
		return nil, false
	}
	abs := set.Start + offset
	if abs < 0 || abs+n > rec.Len() {
		return nil, false
	}
	if rec.q != nil {
		res := rec.res.Load()
		if res.tier == TierHot {
			return res.f[abs : abs+n], true
		}
		if cap(*buf) < n {
			*buf = make([]float64, n)
		}
		out := (*buf)[:n]
		QuantView{Counts: res.counts, Scale: rec.q.scale}.Dequantize(out, abs, n)
		return out, true
	}
	return rec.Samples[abs : abs+n], true
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
