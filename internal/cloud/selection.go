package cloud

import (
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
)

// selection is one correlation set as the store holds it: per retrieved
// match the entry's wire header and where its continuation lies — which
// record, from which sample, how many. It is built without reading a
// sample and never changes afterwards, so the batch that scanned for it,
// every request that batch deduplicated onto it, the tenant's cache and
// every later hit share one pointer. A reply is encoded from it per
// request (encode), a direct answer copied from it (corrSet); either way
// an entry's Scale is its record's and its Samples are the record's
// counts, bit for bit.
//
// Lifetime: a selection holds records and a record holds its payload —
// for a mapped snapshot, the mapping, which only the collector unmaps.
// So a selection that outlives its tenant's eviction (a hit in flight,
// a reply not yet encoded) still reads valid memory, and the counts are
// looked up where they reside at encode time, so a promotion or demotion
// in between changes where the bytes come from and not what they are.
type selection struct {
	picks   []pick
	samples int // Σ pick.n: with len(picks) it gives the reply's exact size
}

// pick is one entry of a selection: 48 bytes standing for a continuation
// of up to horizon samples.
type pick struct {
	head   proto.CorrHeader
	rec    *mdb.Record
	off, n int // the continuation is rec's counts[off : off+n]
}

// selectEntries turns a search result into the selection the edge is
// sent: for every retrieved match, the parent recording from the matched
// offset forward, the configured horizon long, clipped exactly to the end
// of the recording. Matches with less than one window of continuation
// left are dropped — the edge cannot track them even one iteration. One
// store snapshot serves the whole selection; signal-set IDs are stable
// across epochs (the set list is append-only), so matches from a slightly
// older scan epoch always resolve.
func (e *Engine) selectEntries(t *tenant, res *search.Result, windowLen int) *selection {
	horizon := int(e.cfg.HorizonSeconds * e.cfg.BaseRate)
	snap := t.store.Snapshot()
	sets := snap.Sets()
	sel := &selection{picks: make([]pick, 0, len(res.Matches))}
	for _, m := range res.Matches {
		if m.SetID < 0 || m.SetID >= len(sets) {
			continue
		}
		set := sets[m.SetID]
		rec, ok := snap.Record(set.RecordID)
		if !ok {
			continue
		}
		off := set.Start + m.Beta
		n := min(horizon, rec.Len()-off)
		if off < 0 || n < windowLen {
			continue
		}
		sel.picks = append(sel.picks, pick{
			head: proto.MakeCorrHeader(&proto.CorrEntry{
				SetID:     int32(m.SetID),
				Omega:     float32(m.Omega),
				Beta:      int32(m.Beta),
				Anomalous: set.Anomalous,
				Class:     uint8(set.Class),
				Archetype: uint16(set.Archetype),
				// Exact: a record's scale is stored float32-narrowed.
				Scale: float32(rec.Quant().Scale),
			}),
			rec: rec, off: off, n: n,
		})
		sel.samples += n
	}
	return sel
}

// encode writes the selection as a CorrSet payload answering seq: one
// pass, straight from each record's counts where they reside now — heap,
// promoted heap copy or the page cache behind a mapped snapshot — into a
// pooled buffer of exactly the payload's size. The caller owns the
// buffer (see proto.PutBuffer).
func (s *selection) encode(seq uint32) []byte {
	b := proto.GetBuffer(proto.CorrSetSize(len(s.picks), s.samples))[:0]
	b = proto.AppendCorrSetHeader(b, seq, len(s.picks))
	for i := range s.picks {
		p := &s.picks[i]
		b = proto.AppendCorrEntry(b, &p.head, p.rec.Quant().Counts[p.off:p.off+p.n])
	}
	return b
}

// corrSet copies the selection out as the message a decoder of encode's
// bytes builds, field for field: the entries and one backing array for
// all their samples. A caller of Engine.SearchTenant holds no record, so
// unlike a reply being encoded it cannot be handed the store's memory.
func (s *selection) corrSet(seq uint32) *proto.CorrSet {
	cs := &proto.CorrSet{Seq: seq}
	if len(s.picks) == 0 {
		return cs
	}
	cs.Entries = make([]proto.CorrEntry, len(s.picks))
	samples := make([]int16, s.samples)
	for i := range s.picks {
		p := &s.picks[i]
		e := &cs.Entries[i]
		*e = p.head.Entry()
		e.Samples = samples[:p.n:p.n]
		samples = samples[p.n:]
		copy(e.Samples, p.rec.Quant().Counts[p.off:])
	}
	return cs
}
