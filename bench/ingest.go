package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"emap"
	"emap/internal/cloud"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/synth"
	"emap/internal/wal"
)

const (
	// tenantCap is the registry's resident-tenant cap: every round
	// past the warm-up evicts one tenant — snapshot persist plus WAL
	// checkpoint.
	tenantCap = 4
	sliceLen  = 1000
	// walPolicy is NOT the shipped default (wal.SyncAlways): the log of
	// this workload is on, appended to, checkpointed and replayed, but
	// it never fsyncs. Under SyncAlways ≈ 0.2 ms of a ≈ 0.3 ms ingest is
	// this sandbox's virtual disk, and everything timed rides on it —
	// wall time, but also CPU time, because the guest's block path costs
	// more system time when the host is busy. Twenty runs of the same
	// code under SyncAlways, quiet rounds only: ops_per_s 1 230–1 760
	// (interquartile spread 8 % in one set of ten, 21 % in the next),
	// op_p50_ms 0.25–0.40 ms, cpu_ms_per_op 0.43–0.58 ms; with the time
	// inside fsync subtracted by the log's own counter the rest still
	// spread 12 % in range. No bound the benchmark may set holds on that
	// with room to spare. The fsyncing path is measured by the layer
	// probes instead, side by side with the non-syncing one:
	// cloud.ingest_ms against cloud.ingest_nosync_ms, wal.fsync_ms,
	// wal.append_ms, wal.syncs_per_ingest.
	walPolicy = wal.SyncNever
)

// ingest is ingest-mixed: writes beside reads against a WAL-backed,
// capped tenant registry.
type ingest struct {
	env
	cloudFixture
	tenantsDir, walDir string

	shuffled []*proto.Ingest // this set-up's shuffle of the design's chunk pool
	ids      []string        // current round's record IDs
	reads    [][]float64     // current round's read windows
	// acked counts the acknowledged ingests per tenant; the record IDs
	// are a function of tenant and index (recordID), so the restart
	// check regenerates them.
	acked  map[string]int
	tenant string
	walLag wal.MetricsSnapshot // WAL counters at the end of set-up

	replayMS float64
	// traced run: shadow mirrors the current tenant's store, evicted
	// is the previous traced round's full mirror, scratch the replay's
	// append target.
	shadow, evicted *mdb.Store
	scratch         *wal.Log
	scratchEng      *cloud.Engine
}

func tenantID(r int) string { return fmt.Sprintf("p%04d", r) }

func recordID(tenant string, i int) string { return fmt.Sprintf("%s-%04d", tenant, i) }

func (w *ingest) setup(e env) error {
	w.env = e
	w.rewind()
	w.acked = map[string]int{}

	// The edge half of an ingest: preprocess (resample, bandpass) and
	// quantize every chunk of the pool, then put the pool in the
	// seed's order.
	for _, raw := range w.rawChunks(e.ingestsPerTenant) {
		rec, err := mdb.Preprocess(raw, mdb.BuildConfig{}, w.fir)
		if err != nil {
			return err
		}
		counts, scale := proto.Quantize(rec.Samples[:chunkLen])
		w.shuffled = append(w.shuffled, &proto.Ingest{
			Class: uint8(rec.Class), Archetype: uint16(rec.Archetype), Onset: -1,
			Scale: scale, Samples: counts,
		})
	}
	w.rnd.Shuffle(len(w.shuffled), func(i, j int) { w.shuffled[i], w.shuffled[j] = w.shuffled[j], w.shuffled[i] })

	w.tenantsDir, w.walDir = filepath.Join(e.dir, "tenants"), filepath.Join(e.dir, "wal")
	reg, err := emap.NewRegistry(w.tenantsDir, tenantCap)
	if err != nil {
		return err
	}
	srv, err := cloud.NewRegistryServer(reg, cloud.Config{
		StoreFormat: mdb.FormatColumnar, WALDir: w.walDir, WALSync: walPolicy})
	if err != nil {
		return err
	}
	// Fill the registry to its cap with full tenants, so the very first
	// timed round already evicts one. They are built in memory and
	// adopted, not ingested over the wire.
	for t := 0; t < tenantCap; t++ {
		store := mdb.NewQuantizedStore()
		for i, chunk := range w.shuffled {
			if err := insertChunk(store, chunk, fmt.Sprintf("warm%d-%04d", t, i)); err != nil {
				return err
			}
		}
		if err := reg.Adopt(fmt.Sprintf("warm%d", t), store); err != nil {
			return err
		}
	}
	if err := w.serve(srv, ""); err != nil {
		return err
	}
	// Tenant warm-up: the first read of each warm tenant builds its
	// serving state (searcher, prewarmed kernel engine, cache); two
	// design rounds of reads are spread over them.
	for i, win := range append(w.design.round(), w.design.round()...) {
		w.client.SetTenant(fmt.Sprintf("warm%d", i%tenantCap))
		if _, err := w.exchange(win); err != nil {
			return err
		}
	}
	w.walLag = reg.WALMetrics().Snapshot()
	return nil
}

// insertChunk inserts one pool chunk into a store under recordID, the
// way the cloud's ingest path does: the wire counts are the canonical
// payload, sliced and labelled by the class rule.
func insertChunk(store *mdb.Store, ing *proto.Ingest, recordID string) error {
	rec := &mdb.Record{ID: recordID, Class: synth.ClassFromCode(ing.Class),
		Archetype: int(ing.Archetype), Onset: int(ing.Onset)}
	_, err := store.InsertQuantized(rec, ing.Samples, ing.Scale, sliceLen,
		mdb.LabelFor(rec, mdb.BuildConfig{BaseRate: emap.BaseRate}))
	return err
}

// put is one checked Client.Ingest of pool chunk n under id.
func (w *ingest) put(tenant, id string, n int) (*proto.IngestAck, error) {
	ing := *w.shuffled[n]
	ing.RecordID = id
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	ack, err := w.client.Ingest(ctx, &ing)
	if err != nil {
		return nil, err
	}
	if err := w.checkSeq(ack.Seq); err != nil {
		return nil, err
	}
	if ack.Sets < 1 {
		return nil, fmt.Errorf("ingest of %s created no signal-set", id)
	}
	w.acked[tenant]++
	if int(ack.TotalRecords) != w.acked[tenant] {
		return nil, fmt.Errorf("tenant %s holds %d records after %d acks", tenant, ack.TotalRecords, w.acked[tenant])
	}
	return ack, nil
}

func (w *ingest) shapes() int { return 1 }

func (w *ingest) prepare(r int) {
	n := w.ingestsPerTenant
	w.tenant = tenantID(r)
	w.ids = w.ids[:0]
	for i := 0; i < n; i++ {
		w.ids = append(w.ids, recordID(w.tenant, i))
	}
	w.reads = w.design.round()[:n/w.readEvery]
}

func (w *ingest) round(_ int, rc *recorder) {
	w.client.SetTenant(w.tenant)
	if rc.tr != nil {
		w.evicted, w.shadow = w.shadow, mdb.NewQuantizedStore()
	}
	for i, id := range w.ids {
		var ack *proto.IngestAck
		start := time.Now()
		d := rc.op(func() (err error) {
			ack, err = w.put(w.tenant, id, i)
			return err
		})
		if ack != nil {
			rc.dig.add(uint64(ack.Sets)<<32 | uint64(ack.TotalRecords))
		}
		if rc.tr != nil {
			w.trace(rc.tr, len(rc.lat)-1, id, i, start, d)
		}
		if (i+1)%w.readEvery == 0 {
			w.read(rc, w.reads[i/w.readEvery])
		}
	}
}

// read is one Search beside the writes: inside the run's wall, CPU and
// allocation totals, outside its latency population.
func (w *ingest) read(rc *recorder, window []float64) {
	start := time.Now()
	cs, err := w.exchange(window)
	rc.attempted++
	if err != nil {
		rc.fail(fmt.Errorf("read beside write: %w", err))
		return
	}
	rc.side = append(rc.side, ms(time.Since(start)))
	digestCorrSet(&rc.dig, cs)
}

func (w *ingest) settle(*recorder) {}

// verify abandons the server un-closed — no registry flush, exactly a
// kill — reopens the snapshot and WAL directories in a fresh registry,
// and counts every acknowledged record that is not there as a failed
// op.
func (w *ingest) verify(rc *recorder) {
	w.stop()
	reg, err := emap.NewRegistry(w.tenantsDir, 0)
	if err != nil {
		rc.fail(err)
		return
	}
	// The engine wires the WAL replay (decode + insert) into the
	// registry; nothing is served through it.
	if _, err := cloud.NewEngine(reg, cloud.Config{
		StoreFormat: mdb.FormatColumnar, WALDir: w.walDir, WALSync: walPolicy}); err != nil {
		rc.fail(err)
		return
	}
	var replayed []float64
	for tenant, n := range w.acked {
		before := reg.WALMetrics().Replayed.Load()
		start := time.Now()
		store, err := reg.Open(tenant)
		d := time.Since(start)
		if err != nil {
			rc.fail(fmt.Errorf("reopening %s: %w", tenant, err))
			rc.failed += n - 1
			continue
		}
		if reg.WALMetrics().Replayed.Load() > before {
			replayed = append(replayed, ms(d))
		}
		snap := store.Snapshot()
		for i := 0; i < n; i++ {
			id := recordID(tenant, i)
			if _, ok := snap.Record(id); !ok {
				rc.fail(fmt.Errorf("acknowledged record %s lost across the restart", id))
			}
		}
	}
	w.replayMS = mean(replayed)
	if len(replayed) == 0 {
		rc.fail(errors.New("no tenant replayed its WAL: the restart check exercised nothing"))
	}
}

func (w *ingest) live(out layerTable) {
	m := w.srv.Metrics.Snapshot()
	out["cloud.batch_size_mean"] = m.BatchSizeMean
	out["cloud.request_mean_ms"] = ms(m.MeanLatency)
	if hm := m.CacheHits + m.CacheMisses; hm > 0 {
		out["cloud.cache_hit_ratio"] = float64(m.CacheHits) / float64(hm)
	}
	// wal.fsync_ms and wal.syncs_per_ingest stay the probes': they
	// measure the shipped fsync-per-append policy, this workload's log
	// does not sync.
	wm := w.srv.Registry().WALMetrics().Snapshot()
	if appends := wm.Appends - w.walLag.Appends; appends > 0 {
		out["wal.bytes_per_ingest"] = float64(wm.AppendedBytes-w.walLag.AppendedBytes) / float64(appends)
	}
	out["wal.replay_ms"] = w.replayMS
}

func (w *ingest) teardown() {
	w.stop()
	if w.scratch != nil {
		w.scratch.Close()
	}
}

// trace records the ingest's live span and mirrors it into the shadow
// store; every replayStride-th op the mirror is the replay: encode →
// frame → wire → decode → wal.Log.Append on a scratch log →
// InsertQuantized into a store the size of the live tenant's. A
// tenant's first ingest is replayed as what it is: the eviction of the
// least recently used tenant (snapshot persist + WAL checkpoint of a
// full tenant), then an Engine.Ingest into a tenant a scratch engine has
// never seen — registry open, serving state, log creation, append and
// insert in one.
func (w *ingest) trace(tr *tracer, op int, recordID string, n int, start time.Time, d time.Duration) {
	root := tr.root("edge.ingest", op, start, d)
	ing := *w.shuffled[n]
	ing.RecordID = recordID
	insert := func() { _ = insertChunk(w.shadow, &ing, recordID) }
	if op%replayStride != 0 {
		insert()
		return
	}
	if w.scratch == nil {
		lg, err := wal.Open(filepath.Join(w.dir, "scratch.wal"), wal.Options{Sync: walPolicy}, nil)
		if err != nil {
			return
		}
		reg, err := emap.NewRegistry(filepath.Join(w.dir, "scratch-tenants"), 0)
		if err != nil {
			return
		}
		eng, err := cloud.NewEngine(reg, cloud.Config{
			StoreFormat: mdb.FormatColumnar, WALDir: filepath.Join(w.dir, "scratch-wal"), WALSync: walPolicy})
		if err != nil {
			return
		}
		w.scratch, w.scratchEng = lg, eng
	}
	tr.replayed(d)
	var payload []byte
	tr.layerSpan("proto.encode_ingest", op, root, func() { payload = proto.EncodeIngest(&ing) })
	tr.layerSpan("proto.frame", op, root, func() { frameRoundTrip(proto.TypeIngest, payload) })
	w.wireSpan(tr, op, root)
	tr.layerSpan("proto.decode_ingest", op, root, func() { _, _ = proto.DecodeIngest(payload) })
	if n > 0 {
		tr.layerSpan("wal.append", op, root, func() { _ = w.scratch.Append(payload) })
		tr.layerSpan("mdb.insert_quantized", op, root, insert)
		return
	}
	if w.evicted != nil {
		tr.layerSpan("mdb.evict_persist", op, root, func() {
			_ = w.evicted.Snapshot().SaveFileFormat(filepath.Join(w.dir, "scratch.snap"), mdb.FormatColumnar)
			_ = w.scratch.Checkpoint()
		})
		w.evicted = nil
	}
	tr.layerSpan("cloud.open_tenant", op, root, func() { _, _ = w.scratchEng.Ingest(w.tenant, &ing) })
	insert()
}
