package mdb

import (
	"sync"
	"sync/atomic"

	"emap/internal/dsp"
)

// tierState is a store's residency manager: it tracks every quantized
// record, charges the bytes their promoted representations add on top
// of the canonical payload, and demotes the least-recently-scanned
// records when a byte budget is set. One tierState is shared by a
// store and every store derived from it (SubsetSets), because they
// share the underlying records.
//
// Locking: transitions are serialised by mu, but the published
// representation is read lock-free through Record.res — a demotion
// never invalidates a representation an in-flight scan already loaded
// (see resident).
type tierState struct {
	mu         sync.Mutex
	recs       []*Record // every tiered record, registration order (guarded by mu)
	budget     atomic.Int64
	resident   atomic.Int64 // promoted bytes currently charged above canonical payloads
	promotions atomic.Int64
	demotions  atomic.Int64
	clock      atomic.Int64 // LRU tick, bumped on every scan access
}

func newTierState() *tierState { return &tierState{} }

// TierStats reports a store's per-tier resident footprint and the
// lifetime promotion/demotion counts, for /metrics exposition.
type TierStats struct {
	HotBytes   int64 // float64 samples + sliding stats of hot records
	WarmBytes  int64 // heap int16 counts + block sums of warm records
	ColdBytes  int64 // mmap-backed counts + block sums of cold records (page cache, not heap)
	Promotions int64
	Demotions  int64
}

// hotChargeBytes is the heap cost of a hot representation: 8n for the
// float64 samples plus 16(n+1) for the sliding-stats prefix arrays.
func hotChargeBytes(n int) int64 { return int64(n)*24 + 32 }

// warmChargeBytes is the heap cost of an in-heap int16 representation:
// 2n counts plus 16 bytes per block checkpoint.
func warmChargeBytes(n int) int64 {
	nb := n/qBlockLen + 1
	return int64(n)*2 + int64(nb)*16
}

// chargeOf returns the promoted bytes a representation holds above the
// record's canonical payload.
func chargeOf(rec *Record, res *resident) int64 {
	if rec.q == nil || res == nil {
		return 0
	}
	n := len(rec.q.counts)
	var c int64
	if res.tier == TierHot {
		c += hotChargeBytes(n)
	}
	if res.heapCopy {
		c += warmChargeBytes(n)
	}
	return c
}

// register adds a freshly inserted or loaded quantized record to the
// residency manager.
func (t *tierState) register(rec *Record) {
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

// setBudget installs the promoted-bytes budget (0 disables both the
// cap and opportunistic promotion) and demotes immediately if the
// current residency exceeds it.
func (t *tierState) setBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	t.budget.Store(bytes)
	if bytes > 0 {
		t.mu.Lock()
		t.enforceLocked(nil)
		t.mu.Unlock()
	}
}

// touch records a scan access: it bumps the record's LRU stamp and,
// when a budget leaves headroom, climbs the record one tier
// (cold→warm, then warm→hot on a later access). Promotion is strictly
// opportunistic here — with no budget configured, quantized records
// stay at their canonical tier and are scanned in the compressed
// domain, which is the point of the format.
func (t *tierState) touch(rec *Record) {
	rec.lastUse.Store(t.clock.Add(1))
	if rec.q == nil {
		return
	}
	budget := t.budget.Load()
	if budget <= 0 {
		return
	}
	res := rec.res.Load()
	if res.tier == TierHot {
		return
	}
	n := len(rec.q.counts)
	var delta int64
	switch res.tier {
	case TierCold:
		delta = warmChargeBytes(n)
	case TierWarm:
		delta = hotChargeBytes(n)
	}
	if t.resident.Load()+delta > budget {
		return
	}
	t.mu.Lock()
	res = rec.res.Load()
	if res.tier != TierHot && t.resident.Load()+delta <= budget {
		t.promoteLocked(rec, res.tier-1) // one step up
	}
	t.mu.Unlock()
}

// ensureHot forces the record to the hot tier — Record.Float and
// Record.Stats hand out the dequantized waveform and its statistics —
// charging the promotion even when it overshoots the budget, then
// demoting colder records to compensate. The just-promoted record is
// exempt from that demotion pass, so the budget can be exceeded by at
// most one record.
func (t *tierState) ensureHot(rec *Record) *resident {
	rec.lastUse.Store(t.clock.Add(1))
	if res := rec.res.Load(); res.tier == TierHot {
		return res
	}
	t.mu.Lock()
	res := t.promoteLocked(rec, TierHot)
	t.enforceLocked(rec)
	t.mu.Unlock()
	return res
}

// promoteLocked raises rec to target and returns the new
// representation. Caller holds mu.
func (t *tierState) promoteLocked(rec *Record, target Tier) *resident {
	res := rec.res.Load()
	for res.tier > target {
		var next *resident
		switch res.tier {
		case TierCold:
			if target == TierWarm {
				// Heap copy of the mapped payload, for scan locality.
				next = &resident{
					tier:     TierWarm,
					counts:   append([]int16(nil), res.counts...),
					bsum:     append([]int64(nil), res.bsum...),
					bsumSq:   append([]int64(nil), res.bsumSq...),
					heapCopy: true,
				}
			} else {
				// Straight to hot: dequantize out of the map, keep the
				// counts mapped (no warm copy to pay for).
				f := rec.q.dequantizeAll()
				next = &resident{
					tier: TierHot, counts: res.counts, bsum: res.bsum, bsumSq: res.bsumSq,
					f: f, stats: dsp.NewSlidingStats(f),
				}
			}
		case TierWarm:
			f := rec.q.dequantizeAll()
			next = &resident{
				tier: TierHot, counts: res.counts, bsum: res.bsum, bsumSq: res.bsumSq,
				heapCopy: res.heapCopy, f: f, stats: dsp.NewSlidingStats(f),
			}
		}
		t.resident.Add(chargeOf(rec, next) - chargeOf(rec, res))
		t.promotions.Add(1)
		rec.res.Store(next)
		res = next
	}
	return res
}

// demoteOneLocked lowers rec one tier toward its floor. Returns false
// when the record is already at its floor (warm for heap-canonical
// payloads, cold for mapped ones). Caller holds mu.
func (t *tierState) demoteOneLocked(rec *Record) bool {
	res := rec.res.Load()
	var next *resident
	switch res.tier {
	case TierHot:
		if res.heapCopy {
			next = &resident{tier: TierWarm, counts: res.counts, bsum: res.bsum, bsumSq: res.bsumSq, heapCopy: true}
		} else {
			next = rec.q.baseResident()
		}
	case TierWarm:
		if !res.heapCopy {
			return false // heap-canonical floor
		}
		next = rec.q.baseResident()
	default:
		return false
	}
	t.resident.Add(chargeOf(rec, next) - chargeOf(rec, res))
	t.demotions.Add(1)
	rec.res.Store(next)
	return true
}

// enforceLocked demotes least-recently-used records one step at a time
// until the promoted bytes fit the budget. except (may be nil) is the
// record the caller just promoted and is never demoted here. Caller
// holds mu.
func (t *tierState) enforceLocked(except *Record) {
	budget := t.budget.Load()
	if budget <= 0 {
		return
	}
	for t.resident.Load() > budget {
		var victim *Record
		var victimUse int64
		for _, rec := range t.recs {
			if rec == except {
				continue
			}
			res := rec.res.Load()
			if chargeOf(rec, res) == 0 {
				continue
			}
			use := rec.lastUse.Load()
			if victim == nil || use < victimUse {
				victim, victimUse = rec, use
			}
		}
		if victim == nil || !t.demoteOneLocked(victim) {
			return
		}
	}
}

// stats sums the per-tier footprint over the given epoch's records.
func (t *tierState) stats(v *view) TierStats {
	var ts TierStats
	for _, rec := range v.recs {
		n := rec.Len()
		if rec.q == nil {
			ts.HotBytes += hotChargeBytes(n)
			continue
		}
		res := rec.res.Load()
		switch res.tier {
		case TierHot:
			ts.HotBytes += hotChargeBytes(n)
			if res.heapCopy {
				ts.WarmBytes += warmChargeBytes(n)
			}
		case TierWarm:
			ts.WarmBytes += warmChargeBytes(n)
		case TierCold:
			ts.ColdBytes += warmChargeBytes(n)
		}
	}
	ts.Promotions = t.promotions.Load()
	ts.Demotions = t.demotions.Load()
	return ts
}
