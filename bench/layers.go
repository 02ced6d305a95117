package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"emap"
	"emap/internal/cloud"
	"emap/internal/fft"
	"emap/internal/kernel"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/synth"
	"emap/internal/track"
	"emap/internal/wal"
)

// perLayer is the per-layer metric table, layer = module. Every traced
// run prints all of it. The probes measure each layer through its
// public functions on one standard fixture (the recall tenant), the
// same way whatever the workload; where the traced workload runs a
// layer live, its live figure replaces the probe's (see live on each
// workload).
var perLayer = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"dsp.filter_ms", "ms"},
	{"proto.quantize_ms", "ms"},
	{"proto.encode_upload_ms", "ms"},
	{"proto.decode_upload_ms", "ms"},
	{"proto.encode_corrset_ms", "ms"},
	{"proto.decode_corrset_ms", "ms"},
	{"proto.corrset_kb", "kB"},
	{"proto.encode_ingest_ms", "ms"},
	{"proto.decode_ingest_ms", "ms"},
	{"edge.wire_overhead_ms", "ms"},
	{"edge.op_p99_ms", "ms"},
	{"edge.read_beside_write_ms", "ms"},
	{"cloud.serve_miss_ms", "ms"},
	{"cloud.serve_hit_ms", "ms"},
	{"cloud.assemble_ms", "ms"},
	{"cloud.ingest_ms", "ms"},
	{"cloud.ingest_nosync_ms", "ms"},
	{"cloud.cache_hit_ratio", "ratio"},
	{"cloud.batch_size_mean", "count"},
	{"cloud.request_mean_ms", "ms"},
	{"search.scan_warm_ms", "ms"},
	{"search.scan_hot_ms", "ms"},
	{"search.evals_per_query", "count"},
	{"search.profile_sets_per_query", "count"},
	{"search.batch8_ms_per_query", "ms"},
	{"search.exhaustive_ms", "ms"},
	{"search.par_speedup", "ratio"},
	{"kernel.dot_ns", "ns"},
	{"kernel.dotq_ns", "ns"},
	{"kernel.dotqf_ns", "ns"},
	{"kernel.profile_us", "us"},
	{"fft.realplan_us", "us"},
	{"mdb.build_ms", "ms"},
	{"mdb.load_columnar_ms", "ms"},
	{"mdb.save_columnar_ms", "ms"},
	{"mdb.insert_quant_100_ms", "ms"},
	{"mdb.insert_quant_1000_ms", "ms"},
	{"mdb.evict_persist_ms", "ms"},
	{"mdb.hot_kb", "kB"},
	{"mdb.warm_kb", "kB"},
	{"mdb.cold_kb", "kB"},
	{"mdb.promotions", "count"},
	{"mdb.disk_bytes_per_sample", "B"},
	{"wal.append_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"wal.syncs_per_ingest", "ratio"},
	{"wal.bytes_per_ingest", "B"},
	{"wal.replay_ms", "ms"},
	{"track.new_tracker_ms", "ms"},
	{"track.step_ms", "ms"},
	{"track.signals_mean", "count"},
	{"pipeline.filter_busy_ms", "ms"},
	{"pipeline.quantize_busy_ms", "ms"},
	{"pipeline.track_busy_ms", "ms"},
	{"core.cloud_calls_per_window", "ratio"},
	{"core.multi4_slot_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// tracedRun is the second run of a workload: one set-up, then half the
// time budget in rounds that alternate between untraced and traced —
// the traced ones record spans and replay every replayStride-th op
// layer by layer — then the layer probes. End-to-end numbers never come
// from here.
func tracedRun(name string, seed uint64, budget time.Duration, maxRounds int, size sizing, outDir string) (*outcome, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	dir := filepath.Join(outDir, fmt.Sprintf("work-%d-%s-traced", os.Getpid(), name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	d, err := newDesign(seed, size)
	if err != nil {
		return nil, err
	}
	w := mk()
	defer w.teardown()
	start := time.Now()
	if err := w.setup(env{design: d, dir: dir, sizing: size}); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	out := &outcome{workload: name, seed: seed, setups: []float64{time.Since(start).Seconds()}}

	// Plain and traced cycles of rounds alternate, so both populations
	// see the same shapes and the same minutes of the machine.
	tr := newTracer()
	plain, traced := newRecorder(nil), newRecorder(tr)
	shapes := w.shapes()
	r := 0
	for ; ; r++ {
		rc := plain
		if (r/shapes)%2 == 1 {
			rc = traced
			tr.startRound()
		}
		w.prepare(r)
		from := time.Now()
		w.round(r, rc)
		out.timed += time.Since(from)
		rc.roundDig = append(rc.roundDig, rc.dig)
		w.settle(rc)
		if (r+1)%(2*shapes) == 0 && ((maxRounds > 0 && r+1 >= maxRounds) || (maxRounds <= 0 && out.timed >= budget/2)) {
			r++
			break
		}
	}
	out.rounds = r
	w.verify(traced)

	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed
	out.firstErr = plain.firstErr
	if out.firstErr == nil {
		out.firstErr = traced.firstErr
	}
	out.samples = len(plain.lat) + len(traced.lat)
	out.digest, out.roundDig = traced.dig, traced.roundDig

	out.layers = layerTable{}
	for _, d := range perLayer {
		out.layers[d.name] = 0 // a layer the workload never enters reads 0
	}
	if err := probeLayers(out.layers, env{design: d, dir: filepath.Join(dir, "probe"), sizing: size}); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	// The latency percentiles come from the untraced rounds only.
	all := sortedCopy(plain.lat)
	out.layers["op_p50_ms"] = quantile(all, 0.50)
	out.layers["op_p90_ms"] = quantile(all, 0.90)
	out.layers["edge.op_p99_ms"] = quantile(all, 0.99)
	if side := append(plain.side, traced.side...); len(side) > 0 {
		out.layers["edge.read_beside_write_ms"] = median(side)
	}
	w.live(out.layers)
	out.layers["trace.coverage"] = tr.coverage()
	if base := mean(plain.lat); base > 0 {
		out.layers["trace.overhead_pct"] = 100 * (mean(traced.lat) - base) / base
	}
	path, err := tr.write(outDir, name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d spans written to %s; replayed layers of every %dth op:\n", len(tr.spans), path, replayStride)
	for _, l := range tr.totals() {
		fmt.Printf("  %-24s %6d × %9.4f ms\n", l.Name, l.Count, l.TotalMS/float64(l.Count))
	}
	return out, nil
}

// frameRoundTrip writes payload as a v3 frame and reads it back: the
// header, copy and CRC work both ends of the wire do per frame.
func frameRoundTrip(t proto.MsgType, payload []byte) {
	var buf bytes.Buffer
	buf.Grow(len(payload) + 64)
	if err := proto.WriteFrameTenant(&buf, proto.Version3, t, 1, recallTenant, payload); err == nil {
		_, _ = proto.ReadFrameAny(&buf)
	}
}

// timeMS returns the duration of one fn call in ms: reps calls timed in
// five batches, the median batch taken, so a stall of the shared box
// inside one batch does not reach the figure.
func timeMS(reps int, fn func()) float64 {
	const batches = 5
	per := max(reps/batches, 1)
	var means []float64
	for b := 0; b < batches && b*per < reps; b++ {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		means = append(means, ms(time.Since(start))/float64(per))
	}
	return median(means)
}

// bestMS returns the fastest of three timed calls of fn, in ms: what
// else the box runs only ever slows a call down.
func bestMS(fn func()) float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		best = math.Min(best, ms(time.Since(start)))
	}
	return best
}

// probeLayers measures every layer through its public functions on the
// standard fixture: the recall tenant (quantized, memory-mapped, tiered)
// behind its loopback server, the float64 build it was saved from, a
// WAL-backed ingest tenant, and a monitoring session.
func probeLayers(out layerTable, e env) error {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	fx := &recall{repeat: true}
	defer fx.teardown()
	if err := fx.setup(e); err != nil {
		return err
	}
	out["mdb.build_ms"] = fx.buildMS
	out["mdb.save_columnar_ms"] = fx.saveMS
	snapPath := filepath.Join(e.dir, "tenants", recallTenant+".snap")
	if fi, err := os.Stat(snapPath); err == nil {
		out["mdb.disk_bytes_per_sample"] = float64(fi.Size()) / float64(fx.float.TotalSamples())
	}
	out["mdb.load_columnar_ms"] = timeMS(3, func() { _, _ = mdb.LoadFile(snapPath) })

	// Queries: the design's cells as the cloud sees them (16-bit wire
	// view), all distinct, plus one window known to retrieve a set.
	cells := e.probeQueries
	var queries [][]float64
	var payloads [][]byte
	for i := 0; i < cells; i++ {
		counts, scale := proto.Quantize(fx.window(i%fx.cells(), i/fx.cells()))
		queries = append(queries, proto.Dequantize(counts, scale))
		payloads = append(payloads, proto.EncodeUpload(&proto.Upload{Seq: uint32(i), Scale: scale, Samples: counts}))
	}
	hitWindow := fx.working[0]

	raw := fx.gen.Instance(synth.Normal, 0, synth.InstanceOpts{DurSeconds: 1}).Samples[:windowLen]
	stream := fx.fir.NewStream()
	out["dsp.filter_ms"] = timeMS(200, func() { stream.NextBlock(raw) })

	// proto: the upload and the full continuation reply of hitWindow.
	var counts []int16
	var scale float32
	out["proto.quantize_ms"] = timeMS(500, func() { counts, scale = proto.Quantize(hitWindow) })
	up := &proto.Upload{Seq: 1, Scale: scale, Samples: counts}
	var upPayload []byte
	out["proto.encode_upload_ms"] = timeMS(500, func() { upPayload = proto.EncodeUpload(up) })
	out["proto.decode_upload_ms"] = timeMS(500, func() { _, _ = proto.DecodeUpload(upPayload) })
	cs, err := fx.srv.SearchTenant(recallTenant, up)
	if err != nil {
		return err
	}
	var csPayload []byte
	out["proto.encode_corrset_ms"] = timeMS(50, func() { csPayload = proto.EncodeCorrSet(cs) })
	out["proto.decode_corrset_ms"] = timeMS(50, func() { _, _ = proto.DecodeCorrSet(csPayload) })
	out["proto.corrset_kb"] = float64(len(csPayload)) / 1024

	// cloud: direct Engine.ServeFrame, first on never-seen windows
	// (miss: scan + assemble + encode), then on one again (hit).
	frame := func(p []byte) proto.Frame {
		return proto.Frame{Version: proto.Version3, Type: proto.TypeUpload, Tenant: recallTenant, Payload: p}
	}
	i := 0
	out["cloud.serve_miss_ms"] = timeMS(cells, func() { fx.srv.ServeFrame(frame(payloads[i])); i++ })
	hitFrame := frame(upPayload)
	fx.srv.ServeFrame(hitFrame)
	serveHit := timeMS(200, func() { fx.srv.ServeFrame(hitFrame) })
	out["cloud.serve_hit_ms"] = serveHit
	liveHit := timeMS(200, func() { _, _ = fx.exchange(hitWindow) })
	out["edge.wire_overhead_ms"] = liveHit - serveHit

	// search: Algorithm 1 on the quantized tenant (warm/cold tier,
	// compressed domain) and on the float64 build of the same corpus
	// (hot path) — the figure that keeps or drops the hot tier.
	tenantStore, ok := fx.srv.Registry().Get(recallTenant)
	if !ok {
		return fmt.Errorf("recall tenant not resident")
	}
	// Each query is timed back to back through Algorithm1, SearchTenant
	// (= scan + assemble) and, with every CPU of the box in play,
	// Algorithm1 again, so the two derived figures compare like with
	// like: the same query in the same second of the machine.
	warm := search.NewSearcher(tenantStore, search.Params{})
	hot := search.NewSearcher(fx.float, search.Params{})
	hot.Algorithm1(queries[0]) // sliding statistics build lazily
	var scanWarm, scanHot, tenant, par []float64
	var evals, profiled int
	for _, q := range queries {
		scanWarm = append(scanWarm, bestMS(func() {
			if res, err := warm.Algorithm1(q); err == nil {
				evals += res.Evaluated
				profiled += res.ProfileSets
			}
		}))
		counts, scale := proto.Quantize(q)
		up := &proto.Upload{Scale: scale, Samples: counts}
		tenant = append(tenant, bestMS(func() { _, _ = fx.srv.SearchTenant(recallTenant, up) }))
		scanHot = append(scanHot, bestMS(func() { _, _ = hot.Algorithm1(q) }))
		// The one multi-core probe. Ungated: it depends on what else
		// the box runs on its other CPUs.
		runtime.GOMAXPROCS(runtime.NumCPU())
		par = append(par, bestMS(func() { _, _ = warm.Algorithm1(q) }))
		runtime.GOMAXPROCS(1)
	}
	n := float64(3 * len(queries))
	out["search.scan_warm_ms"] = mean(scanWarm)
	out["search.scan_hot_ms"] = mean(scanHot)
	out["search.evals_per_query"] = float64(evals) / n
	out["search.profile_sets_per_query"] = float64(profiled) / n
	out["search.par_speedup"] = mean(scanWarm) / mean(par)
	// Derived: per query, SearchTenant minus its scan; the median over
	// the queries, because the difference is 2 % of either term.
	assemble := make([]float64, len(queries))
	for i := range queries {
		assemble[i] = tenant[i] - scanWarm[i]
	}
	out["cloud.assemble_ms"] = median(assemble)
	out["search.batch8_ms_per_query"] = bestMS(func() { _, _ = warm.AlgorithmN(queries[:8]) }) / 8
	out["search.exhaustive_ms"] = bestMS(func() { _, _ = warm.Exhaustive(queries[0]) })
	ts := tenantStore.TierStats()
	out["mdb.hot_kb"] = float64(ts.HotBytes) / 1024
	out["mdb.warm_kb"] = float64(ts.WarmBytes) / 1024
	out["mdb.cold_kb"] = float64(ts.ColdBytes) / 1024
	out["mdb.promotions"] = float64(ts.Promotions)

	probeKernels(out, queries[0], counts)
	if err := probeIngest(out, fx, e); err != nil {
		return err
	}
	return probeSession(out, fx)
}

// probeKernels times the correlation kernels on one-second operands.
func probeKernels(out layerTable, q []float64, c []int16) {
	const reps = 20000
	var sinkF float64
	var sinkI int64
	out["kernel.dot_ns"] = 1e6 * timeMS(reps, func() { sinkF += kernel.Dot(q, q) })
	out["kernel.dotq_ns"] = 1e6 * timeMS(reps, func() { sinkI += kernel.DotQ(c, c) })
	out["kernel.dotqf_ns"] = 1e6 * timeMS(reps, func() { sinkF += kernel.DotQF(q, c) })
	_, _ = sinkF, sinkI

	// One dense ω profile of a slice: segment spectrum, query
	// spectrum, multiply + inverse.
	seg := make([]float64, sliceLen+windowLen-1)
	for i := range seg {
		seg[i] = q[i%len(q)]
	}
	p := kernel.NewEngine().Profiler(len(seg))
	segSpec, qSpec, work := make([]complex128, p.Bins()), make([]complex128, p.Bins()), make([]complex128, p.Bins())
	dst := make([]float64, p.M())
	out["kernel.profile_us"] = 1e3 * timeMS(200, func() {
		p.Spectrum(segSpec, seg)
		p.Spectrum(qSpec, q)
		p.Correlate(dst, segSpec, qSpec, work)
	})
	if plan, err := fft.NewRealPlan(p.M()); err == nil {
		out["fft.realplan_us"] = 1e3 * timeMS(500, func() { plan.Forward(segSpec, seg) })
	}
}

// probeIngest measures the write path: the codec, a direct
// Engine.Ingest into a WAL-backed tenant, the insert into stores
// already holding 100 and 1 000 records, eviction persist, a bare
// wal.Log.Append, and the replay a restart pays.
func probeIngest(out layerTable, fx *recall, e env) error {
	records := e.probeRecords
	chunk := func(i int) *proto.Ingest {
		rec := fx.crop(i, 0, float64(chunkLen+100)/emap.BaseRate)
		counts, scale := proto.Quantize(fx.fir.Apply(rec.Samples)[100 : 100+chunkLen])
		return &proto.Ingest{RecordID: fmt.Sprintf("probe-%04d", i), Class: uint8(rec.Class),
			Archetype: uint16(rec.Archetype), Onset: -1, Scale: scale, Samples: counts}
	}
	pool := make([]*proto.Ingest, fx.cells())
	for i := range pool {
		pool[i] = chunk(i)
	}
	var payload []byte
	out["proto.encode_ingest_ms"] = timeMS(500, func() { payload = proto.EncodeIngest(pool[0]) })
	out["proto.decode_ingest_ms"] = timeMS(500, func() { _, _ = proto.DecodeIngest(payload) })

	// A direct Engine.Ingest into a WAL-backed tenant, under the
	// shipped policy (fsync before the ack) and without the fsync — the
	// policy ingest-mixed runs under.
	tenants, walDir := filepath.Join(e.dir, "ingest-tenants"), filepath.Join(e.dir, "ingest-wal")
	cfg := cloud.Config{StoreFormat: mdb.FormatColumnar, WALDir: walDir, WALSync: wal.SyncAlways}
	direct := func(tenantsDir string, cfg cloud.Config) (float64, *mdb.Registry, error) {
		reg, err := emap.NewRegistry(tenantsDir, 0)
		if err != nil {
			return 0, nil, err
		}
		eng, err := cloud.NewEngine(reg, cfg)
		if err != nil {
			return 0, nil, err
		}
		var lat []float64
		for i := 0; i < records; i++ {
			ing := *pool[i%len(pool)]
			ing.RecordID = fmt.Sprintf("probe-%04d", i)
			start := time.Now()
			if _, err := eng.Ingest("probe", &ing); err != nil {
				return 0, nil, err
			}
			lat = append(lat, ms(time.Since(start)))
		}
		return median(lat), reg, nil
	}
	nosync, _, err := direct(filepath.Join(e.dir, "nosync-tenants"), cloud.Config{
		StoreFormat: mdb.FormatColumnar, WALDir: filepath.Join(e.dir, "nosync-wal"), WALSync: walPolicy})
	if err != nil {
		return err
	}
	out["cloud.ingest_nosync_ms"] = nosync
	synced, reg, err := direct(tenants, cfg)
	if err != nil {
		return err
	}
	out["cloud.ingest_ms"] = synced
	wm := reg.WALMetrics().Snapshot()
	out["wal.fsync_ms"] = ms(time.Duration(wm.SyncNanos)) / float64(wm.Syncs)
	out["wal.syncs_per_ingest"] = float64(wm.Syncs) / float64(wm.Appends)
	out["wal.bytes_per_ingest"] = float64(wm.AppendedBytes) / float64(wm.Appends)

	// InsertQuantized alone, at two store sizes.
	twin := mdb.NewQuantizedStore()
	var at100, at1000 []float64
	for i := 0; i < records; i++ {
		start := time.Now()
		if err := insertChunk(twin, pool[i%len(pool)], fmt.Sprintf("twin-%04d", i)); err != nil {
			return err
		}
		d := ms(time.Since(start))
		switch {
		case i >= 100 && i < 120:
			at100 = append(at100, d)
		case i >= 1000 && i < 1020:
			at1000 = append(at1000, d)
		}
	}
	out["mdb.insert_quant_100_ms"] = median(at100)
	out["mdb.insert_quant_1000_ms"] = median(at1000)

	// A restart: a fresh registry over the same directories replays
	// the whole log (no snapshot was ever written).
	reg2, err := emap.NewRegistry(tenants, 0)
	if err != nil {
		return err
	}
	if _, err := cloud.NewEngine(reg2, cfg); err != nil {
		return err
	}
	start := time.Now()
	if _, err := reg2.Open("probe"); err != nil {
		return err
	}
	out["wal.replay_ms"] = ms(time.Since(start))
	// Eviction of the 1 100-record tenant: snapshot persist + WAL
	// checkpoint.
	start = time.Now()
	if err := reg2.Evict("probe"); err != nil {
		return err
	}
	out["mdb.evict_persist_ms"] = ms(time.Since(start))

	lg, err := wal.Open(filepath.Join(e.dir, "probe.wal"), wal.Options{Sync: wal.SyncAlways}, nil)
	if err != nil {
		return err
	}
	defer lg.Close()
	out["wal.append_ms"] = timeMS(100, func() { _ = lg.Append(payload) })
	return nil
}

// probeSession measures the edge side: tracker construction and step
// on a real correlation set, the stage busy times of one monitoring
// session, and one four-channel slot.
func probeSession(out layerTable, fx *recall) error {
	dur := float64(fx.sessionWindows)
	input := fx.gen.SeizureInput(0, 30, dur)
	filtered := fx.fir.Apply(input.Samples)
	window := filtered[4*windowLen : 5*windowLen]
	res, err := search.NewSearcher(fx.float, search.Params{}).Algorithm1(window)
	if err != nil {
		return err
	}
	next := filtered[5*windowLen : 6*windowLen]
	out["track.signals_mean"] = float64(len(res.Matches))
	var t *track.Tracker
	out["track.new_tracker_ms"] = timeMS(100, func() { t = track.NewTracker(fx.float, res.Matches, track.Params{}) })
	out["track.step_ms"] = timeMS(100, func() {
		t = track.NewTracker(fx.float, res.Matches, track.Params{})
		t.Step(next)
	}) - out["track.new_tracker_ms"]

	sess, err := emap.New(fx.float)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := sess.Start(ctx)
	if err != nil {
		return err
	}
	for k := 0; k < fx.sessionWindows; k++ {
		if err := stream.Push(emap.Window(input.Samples[k*windowLen : (k+1)*windowLen])); err != nil {
			return err
		}
		<-stream.Reports()
	}
	report, err := stream.Close()
	if err != nil {
		return err
	}
	for _, st := range stream.Stats() {
		switch st.Name {
		case "filter", "quantize", "track":
			out["pipeline."+st.Name+"_busy_ms"] = ms(st.Busy) / float64(report.Windows)
		}
	}
	out["core.cloud_calls_per_window"] = float64(report.CloudCalls) / float64(report.Windows)

	const channels = 4
	slots := min(12, fx.sessionWindows)
	multi, err := emap.New(fx.float, emap.WithChannels(channels))
	if err != nil {
		return err
	}
	ms4, err := multi.StartMulti(ctx)
	if err != nil {
		return err
	}
	start := time.Now()
	for k := 0; k < slots; k++ {
		row := make(emap.MultiWindow, channels)
		for c := range row {
			row[c] = emap.Window(input.Samples[k*windowLen : (k+1)*windowLen])
		}
		if err := ms4.Push(row); err != nil {
			return err
		}
		<-ms4.Reports()
	}
	out["core.multi4_slot_ms"] = ms(time.Since(start)) / float64(slots)
	_, err = ms4.Close()
	return err
}
