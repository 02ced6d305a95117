package mdb

import (
	"sync"
	"sync/atomic"
)

// tierState is a store's residency manager: it tracks every record,
// charges the bytes a promoted representation — a heap copy of mapped
// counts — adds on top of the payload, and demotes the
// least-recently-scanned records when the byte budget shrinks. One
// tierState is shared by a store and every store derived from it
// (SubsetSets), because they share the underlying records.
//
// Locking: transitions are serialised by mu, but the published
// representation is read lock-free through Record.res — a demotion
// never invalidates a representation an in-flight scan already loaded
// (see resident).
type tierState struct {
	mu         sync.Mutex
	recs       []*Record // every record, registration order (guarded by mu)
	budget     atomic.Int64
	resident   atomic.Int64 // promoted bytes currently charged above the payloads
	promotions atomic.Int64
	demotions  atomic.Int64
	clock      atomic.Int64 // LRU tick, bumped on every scan access
}

func newTierState() *tierState { return &tierState{} }

// TierStats reports a store's per-tier resident footprint and the
// lifetime promotion/demotion counts, for /metrics exposition.
type TierStats struct {
	// HotBytes is always 0: no record has a float64 form any more. The
	// field stays because the frozen benchmark harness reads it.
	HotBytes   int64
	WarmBytes  int64 // heap int16 counts + block sums of warm records
	ColdBytes  int64 // mmap-backed counts + block sums of cold records (page cache, not heap)
	Promotions int64
	Demotions  int64
}

// warmChargeBytes is the heap cost of an in-heap int16 representation:
// 2n counts plus 16 bytes per block checkpoint.
func warmChargeBytes(n int) int64 {
	nb := n/qBlockLen + 1
	return int64(n)*2 + int64(nb)*16
}

// register adds a freshly inserted or loaded record to the residency
// manager.
func (t *tierState) register(rec *Record) {
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

// setBudget installs the promoted-bytes budget (0 disables both the
// cap and promotion) and demotes immediately if the current residency
// exceeds it.
func (t *tierState) setBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	t.budget.Store(bytes)
	if bytes > 0 {
		t.mu.Lock()
		t.enforceLocked()
		t.mu.Unlock()
	}
}

// touch records a scan access: it bumps the record's LRU stamp and,
// when a budget leaves headroom, copies a cold record's mapped counts
// into the heap (cold→warm). Promotion is strictly opportunistic — with
// no budget configured a mapped record stays mapped and is scanned out
// of the page cache, which is the point of the format.
func (t *tierState) touch(rec *Record) {
	rec.lastUse.Store(t.clock.Add(1))
	budget := t.budget.Load()
	if budget <= 0 || rec.res.Load().tier != TierCold {
		return
	}
	delta := warmChargeBytes(len(rec.q.counts))
	if t.resident.Load()+delta > budget {
		return
	}
	t.mu.Lock()
	if res := rec.res.Load(); res.tier == TierCold && t.resident.Load()+delta <= budget {
		// Heap copy of the mapped payload, for scan locality.
		next := &resident{
			tier:     TierWarm,
			counts:   append([]int16(nil), res.counts...),
			bsum:     append([]int64(nil), res.bsum...),
			bsumSq:   append([]int64(nil), res.bsumSq...),
			heapCopy: true,
		}
		t.resident.Add(delta)
		t.promotions.Add(1)
		rec.res.Store(next)
	}
	t.mu.Unlock()
}

// enforceLocked drops the heap copies of the least-recently-used
// promoted records, one at a time, until the promoted bytes fit the
// budget. A record whose counts live in the heap to begin with has
// nothing to give back and is never demoted. Caller holds mu.
func (t *tierState) enforceLocked() {
	budget := t.budget.Load()
	if budget <= 0 {
		return
	}
	for t.resident.Load() > budget {
		var victim *Record
		var victimUse int64
		for _, rec := range t.recs {
			if !rec.res.Load().heapCopy {
				continue
			}
			use := rec.lastUse.Load()
			if victim == nil || use < victimUse {
				victim, victimUse = rec, use
			}
		}
		if victim == nil {
			return
		}
		t.resident.Add(-warmChargeBytes(len(victim.q.counts)))
		t.demotions.Add(1)
		victim.res.Store(victim.q.baseResident())
	}
}

// stats sums the per-tier footprint over the given epoch's records.
func (t *tierState) stats(v *view) TierStats {
	var ts TierStats
	for _, rec := range v.recs {
		n := rec.Len()
		if rec.res.Load().tier == TierWarm {
			ts.WarmBytes += warmChargeBytes(n)
		} else {
			ts.ColdBytes += warmChargeBytes(n)
		}
	}
	ts.Promotions = t.promotions.Load()
	ts.Demotions = t.demotions.Load()
	return ts
}
