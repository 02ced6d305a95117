package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"time"

	"emap"
	"emap/internal/cloud"
	"emap/internal/edge"
	"emap/internal/mdb"
	"emap/internal/proto"
)

const (
	recallTenant = "recall"
	// hotBytes is the tenant's promotion budget: far below the store,
	// so the scan stays in the compressed-domain warm/cold tier.
	hotBytes = 256 << 10
	// verifyStride samples the replies re-answered by a direct
	// Engine.SearchTenant; 17 is coprime with recall-repeat's working
	// set, so the samples cover every window of it.
	verifyStride = 17
	topK         = 100
	delta        = 0.8
	horizonLen   = 8 * windowLen
)

// cloudFixture is the cloud hosted in-process behind a real loopback
// TCP listener, with one edge client dialled to it.
type cloudFixture struct {
	srv     *cloud.Server
	ln      net.Listener
	served  chan error
	client  *edge.Client
	stopped bool
	// lastSeq is the Seq of the previous reply on client: every
	// exchange bumps the client's request ID by one, and the cloud
	// must echo it.
	lastSeq uint32
}

// serve starts srv on a loopback listener and dials one client routed
// to tenant.
func (f *cloudFixture) serve(srv *cloud.Server, tenant string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.srv, f.ln, f.served = srv, ln, make(chan error, 1)
	go func() { f.served <- srv.Serve(ln) }()
	f.client, err = edge.DialOpts(ln.Addr().String(), edge.ClientOptions{
		Tenant: tenant, DialTimeout: opTimeout, RedialAttempts: -1})
	return err
}

// stop closes the client, the listener and every server connection and
// waits for the accept loop to return. The registry is deliberately
// not closed: nothing here needs its stores persisted.
func (f *cloudFixture) stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	if f.client != nil {
		f.client.Close()
	}
	if f.ln != nil {
		f.srv.Close()
		<-f.served
	}
}

// checkSeq verifies a reply echoes the next request ID of the client.
func (f *cloudFixture) checkSeq(seq uint32) error {
	want := f.lastSeq + 1
	f.lastSeq = seq
	if seq != want {
		return fmt.Errorf("reply Seq %d, want %d", seq, want)
	}
	return nil
}

// exchange is one checked Client.Search on the fixture's connection.
func (f *cloudFixture) exchange(window []float64) (*proto.CorrSet, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cs, err := f.client.Search(ctx, window)
	if err != nil {
		return nil, err
	}
	if err := f.checkSeq(cs.Seq); err != nil {
		return nil, err
	}
	return cs, checkCorrSet(cs)
}

// wireSpan replays the wire's fixed cost for op: one Client.Ping round
// trip — client matching, loopback, cloud.Transport — which also takes
// a request ID.
func (f *cloudFixture) wireSpan(tr *tracer, op, root int) {
	tr.layerSpan("edge.wire", op, root, func() {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		_ = f.client.Ping(ctx) // a dead connection shows as failed ops on the next exchange
		f.lastSeq++
	})
}

// checkCorrSet verifies the shape every correlation set must have:
// at most top-K entries, each ω ≥ δ, descending, with a trackable
// continuation.
func checkCorrSet(cs *proto.CorrSet) error {
	if len(cs.Entries) > topK {
		return fmt.Errorf("%d entries exceed top-%d", len(cs.Entries), topK)
	}
	prev := math.Inf(1)
	for i, e := range cs.Entries {
		om := float64(e.Omega)
		if om < delta-1e-6 || om > 1+1e-6 {
			return fmt.Errorf("entry %d: ω %.6f outside [δ, 1]", i, om)
		}
		if om > prev {
			return fmt.Errorf("entry %d: ω not descending", i)
		}
		prev = om
		if n := len(e.Samples); n < windowLen || n > horizonLen || !(e.Scale > 0) {
			return fmt.Errorf("entry %d: malformed continuation (%d samples, scale %g)", i, n, e.Scale)
		}
	}
	return nil
}

// digestCorrSet folds a reply's selection — entry count, then class,
// archetype and label per entry — into the run digest.
func digestCorrSet(d *digest, cs *proto.CorrSet) {
	d.add(uint64(len(cs.Entries)))
	for _, e := range cs.Entries {
		v := uint64(e.Class)<<24 | uint64(e.Archetype)<<8
		if e.Anomalous {
			v |= 1
		}
		d.add(v)
	}
}

// entrySum is one reply entry reduced to what an entry-for-entry
// comparison needs; the continuation samples are hashed.
type entrySum struct {
	setID, beta  int32
	omega, scale uint32
	anomalous    bool
	class        uint8
	archetype    uint16
	n            int
	samples      uint64
}

func summarize(entries []proto.CorrEntry) []entrySum {
	out := make([]entrySum, len(entries))
	for i, e := range entries {
		// FNV-1a over whole samples, not bytes: the summary runs inside
		// the timed rounds, on every verifyStride-th reply.
		h := uint64(fnvOffset)
		for _, s := range e.Samples {
			h = (h ^ uint64(uint16(s))) * 1099511628211
		}
		out[i] = entrySum{
			setID: e.SetID, beta: e.Beta,
			omega: math.Float32bits(e.Omega), scale: math.Float32bits(e.Scale),
			anomalous: e.Anomalous, class: e.Class, archetype: e.Archetype,
			n: len(e.Samples), samples: h,
		}
	}
	return out
}

// keptReply is a sampled wire reply awaiting its direct re-answer.
type keptReply struct {
	window []float64
	sum    []entrySum
}

// recall is recall-scan (never-repeating windows, every op a full
// scan) and recall-repeat (a cached working set, no scan at all) over
// one quantized, memory-mapped tenant.
type recall struct {
	repeat bool
	env
	cloudFixture

	float   *mdb.Store // the float64 build the snapshot was saved from
	cur     [][]float64
	working [][]float64
	kept    []keptReply
	// direct memoizes recall-repeat's direct re-answers, one per
	// working-set window.
	direct map[*float64][]entrySum
	ops    int
	base   cloud.MetricsSnapshot // counters at the end of set-up

	buildMS, saveMS float64
}

func (w *recall) setup(e env) error {
	w.env = e
	w.rewind()
	w.direct = map[*float64][]entrySum{}

	start := time.Now()
	store, err := emap.BuildMDB(w.corpus)
	if err != nil {
		return err
	}
	w.float = store
	w.buildMS = ms(time.Since(start))

	tenants := filepath.Join(e.dir, "tenants")
	reg, err := emap.NewRegistry(tenants, 0)
	if err != nil {
		return err
	}
	start = time.Now()
	snap := filepath.Join(tenants, recallTenant+".snap")
	if err := store.Snapshot().SaveFileFormat(snap, mdb.FormatColumnar); err != nil {
		return err
	}
	w.saveMS = ms(time.Since(start))

	srv, err := cloud.NewRegistryServer(reg, cloud.Config{
		StoreFormat: mdb.FormatColumnar, HotBytes: hotBytes})
	if err != nil {
		return err
	}
	if err := w.serve(srv, recallTenant); err != nil {
		return err
	}
	// The first request opens the tenant: lazy mmap load of the
	// snapshot plus the tenant's prewarmed kernel engine.
	if _, err := w.exchange(w.window(0, 0)); err != nil {
		return err
	}

	if w.repeat {
		if err := w.findWorkingSet(); err != nil {
			return err
		}
	} else {
		// Two warm-up rounds of the design.
		for r := 0; r < 2; r++ {
			for _, win := range w.design.round() {
				if _, err := w.exchange(win); err != nil {
					return err
				}
			}
		}
	}
	w.base = srv.Metrics.Snapshot()
	return nil
}

// findWorkingSet collects recall-repeat's cycle: the first workingSet
// windows, walking the design's grid in its own order, whose
// correlation set is non-empty. Searching them is what caches them.
// The grid walk and its noise draws are the same for every seed, so
// every seed cycles the same windows and replies of the same sizes: a
// working set picked in seed order moved alloc_kb_per_op by ±15 %
// between seeds, and one picked under seed-chosen noise draws still by
// ±10 %, because which windows retrieve anything changed. The seed
// orders the cycle.
func (w *recall) findWorkingSet() error {
	for i := 0; len(w.working) < w.workingSet; i++ {
		if i == 40*w.cells() {
			return errors.New("no working set: held-out windows retrieve nothing")
		}
		win := w.window(i%w.cells(), i/w.cells())
		cs, err := w.exchange(win)
		if err != nil {
			return err
		}
		if len(cs.Entries) > 0 {
			w.working = append(w.working, win)
		}
	}
	w.rnd.Shuffle(len(w.working), func(i, j int) { w.working[i], w.working[j] = w.working[j], w.working[i] })
	return nil
}

func (w *recall) shapes() int { return 1 }

func (w *recall) prepare(int) {
	if !w.repeat {
		w.cur = w.design.round()
	}
}

func (w *recall) round(r int, rc *recorder) {
	if !w.repeat {
		for _, win := range w.cur {
			w.search(rc, win)
		}
		return
	}
	for c := 0; c < w.repeatCycles; c++ {
		for _, win := range w.working {
			w.search(rc, win)
		}
	}
}

// search is one timed op: a Client.Search, its checks, its digest, and
// — on sampled ops — the kept summary and the layer replay.
func (w *recall) search(rc *recorder, window []float64) {
	var cs *proto.CorrSet
	start := time.Now()
	d := rc.op(func() (err error) {
		cs, err = w.exchange(window)
		return err
	})
	op := w.ops
	w.ops++
	if cs == nil {
		return
	}
	digestCorrSet(&rc.dig, cs)
	if op%verifyStride == 0 {
		w.kept = append(w.kept, keptReply{window: window, sum: summarize(cs.Entries)})
	}
	if rc.tr != nil {
		w.trace(rc.tr, len(rc.lat)-1, window, cs, start, d)
	}
}

// settle re-answers the round's kept replies by a direct
// Engine.SearchTenant — no wire, no cache, no batching — and compares
// entry for entry. Identical windows (recall-repeat) are re-answered
// once per run.
func (w *recall) settle(rc *recorder) {
	for _, k := range w.kept {
		want, ok := w.direct[&k.window[0]]
		if !ok {
			counts, scale := proto.Quantize(k.window)
			cs, err := w.srv.SearchTenant(recallTenant, &proto.Upload{Scale: scale, Samples: counts})
			if err != nil {
				rc.fail(fmt.Errorf("direct re-answer: %w", err))
				continue
			}
			want = summarize(cs.Entries)
			if w.repeat {
				w.direct[&k.window[0]] = want
			}
		}
		if !equalSums(k.sum, want) {
			rc.fail(errors.New("wire reply differs from the direct Engine.SearchTenant answer"))
		}
	}
	w.kept = w.kept[:0]
}

// verify checks the cache counters: the cache is on in both workloads,
// it must never hit on recall-scan and always hit on recall-repeat.
func (w *recall) verify(rc *recorder) {
	m := w.srv.Metrics.Snapshot()
	hits, misses := m.CacheHits-w.base.CacheHits, m.CacheMisses-w.base.CacheMisses
	if !w.repeat && hits != 0 {
		rc.fail(fmt.Errorf("recall-scan hit the cache %d times", hits))
	}
	if w.repeat && misses != 0 {
		rc.fail(fmt.Errorf("recall-repeat missed the cache %d times", misses))
	}
}

func equalSums(a, b []entrySum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (w *recall) live(out layerTable) {
	m := w.srv.Metrics.Snapshot()
	hits, misses := m.CacheHits-w.base.CacheHits, m.CacheMisses-w.base.CacheMisses
	if hits+misses > 0 {
		out["cloud.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out["cloud.batch_size_mean"] = m.BatchSizeMean
	out["cloud.request_mean_ms"] = ms(m.MeanLatency)
	if ts, ok := w.srv.StoreStatsFor(recallTenant); ok {
		out["mdb.hot_kb"] = float64(ts.HotBytes) / 1024
		out["mdb.warm_kb"] = float64(ts.WarmBytes) / 1024
		out["mdb.cold_kb"] = float64(ts.ColdBytes) / 1024
		out["mdb.promotions"] = float64(ts.Promotions)
	}
}

func (w *recall) teardown() { w.stop() }

// trace records the op's live span and, every replayStride-th op,
// replays its life through the layers' public functions with the op's
// real data: quantize → encode → frame → wire → serve → frame → decode.
// recall-scan serves by a direct SearchTenant (the cache would answer a
// replayed ServeFrame); recall-repeat serves by a direct ServeFrame,
// which is the cache hit the live op took.
func (w *recall) trace(tr *tracer, op int, window []float64, cs *proto.CorrSet, start time.Time, d time.Duration) {
	root := tr.root("edge.search", op, start, d)
	period := w.cells()
	if w.repeat {
		period = len(w.working)
	}
	if !sampled(op, period) {
		return
	}
	tr.replayed(d)
	var counts []int16
	var scale float32
	tr.layerSpan("proto.quantize", op, root, func() { counts, scale = proto.Quantize(window) })
	up := &proto.Upload{Seq: cs.Seq, Scale: scale, Samples: counts}
	var payload []byte
	tr.layerSpan("proto.encode_upload", op, root, func() { payload = proto.EncodeUpload(up) })
	tr.layerSpan("proto.frame", op, root, func() { frameRoundTrip(proto.TypeUpload, payload) })
	w.wireSpan(tr, op, root)
	var reply []byte
	if w.repeat {
		tr.layerSpan("cloud.serve_hit", op, root, func() {
			_, reply = w.srv.ServeFrame(proto.Frame{Version: proto.Version3, Type: proto.TypeUpload,
				Tenant: recallTenant, Payload: payload})
		})
	} else {
		tr.layerSpan("proto.decode_upload", op, root, func() { up, _ = proto.DecodeUpload(payload) })
		var direct *proto.CorrSet
		tr.layerSpan("cloud.search_tenant", op, root, func() { direct, _ = w.srv.SearchTenant(recallTenant, up) })
		if direct == nil {
			return
		}
		tr.layerSpan("proto.encode_corrset", op, root, func() { reply = proto.EncodeCorrSet(direct) })
	}
	tr.layerSpan("proto.frame", op, root, func() { frameRoundTrip(proto.TypeCorrSet, reply) })
	tr.layerSpan("proto.decode_corrset", op, root, func() { _, _ = proto.DecodeCorrSet(reply) })
}
