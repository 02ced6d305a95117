// Benchmarks regenerating every table and figure of the paper's
// evaluation (one bench per artefact, DESIGN.md §4), plus end-to-end
// pipeline benches. Reduced workloads keep `go test -bench=.` in the
// minutes range; `cmd/emap-exp` runs the full-size versions.
package emap_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"emap"
	"emap/internal/backoff"
	"emap/internal/cloud"
	"emap/internal/cluster"
	"emap/internal/dsp"
	"emap/internal/edge"
	"emap/internal/experiments"
	"emap/internal/kernel"
	"emap/internal/mdb"
	"emap/internal/netsim"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/wal"
)

// benchEnv is the shared reduced environment for figure benches.
func benchEnv() experiments.EnvConfig {
	return experiments.EnvConfig{Archetypes: 4, Instances: 2}
}

// BenchmarkFig2 regenerates the motivational P_A trajectory (paper
// Fig. 2: 0.22 → 0.66 over five tracking iterations).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(experiments.Fig2Opts{Env: benchEnv()})
		if err != nil {
			b.Fatal(err)
		}
		if r.LastPA() < r.FirstPA() {
			b.Fatalf("P_A fell: %.2f -> %.2f", r.FirstPA(), r.LastPA())
		}
	}
}

// BenchmarkFig4Upload regenerates the Fig. 4a upload-time curves.
func BenchmarkFig4Upload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(experiments.Fig4Opts{})
		if len(r.UploadMicros) != 6 {
			b.Fatal("platform count")
		}
	}
}

// BenchmarkFig4Download regenerates the Fig. 4b download-time curves.
func BenchmarkFig4Download(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(experiments.Fig4Opts{})
		if len(r.DownloadMillis) != 6 {
			b.Fatal("platform count")
		}
	}
}

// BenchmarkFig7aAlphaSweep regenerates the step-size sweep (paper
// Fig. 7a: quality saturates at α = 0.004).
func BenchmarkFig7aAlphaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7a(experiments.Fig7Opts{
			Env: benchEnv(), Inputs: 2,
			Alphas: []float64{0.002, 0.004, 0.01},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7bExploration regenerates the exhaustive-vs-Algorithm-1
// comparison (paper Fig. 7b: ≈6.8× reduction).
func BenchmarkFig7bExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7b(experiments.Fig7Opts{
			Env: benchEnv(), Inputs: 2, Sizes: []int{250, 500},
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.MeanSpeedup() < 2 {
			b.Fatalf("speedup %.1f×", r.MeanSpeedup())
		}
	}
}

// BenchmarkFig8aThresholds regenerates the δ vs δ_A equivalence sweep
// (paper Fig. 8a: δ_A ≈ 900 ↔ δ = 0.8).
func BenchmarkFig8aThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8a(experiments.Fig8Opts{
			Env: benchEnv(), MaxSets: 200,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8bTracking regenerates the area-vs-correlation tracking
// cost comparison (paper Fig. 8b: ≈4.3× reduction).
func BenchmarkFig8bTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8b(experiments.Fig8Opts{
			Env: benchEnv(), TrackCounts: []int{50, 100}, Repeats: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Timeline regenerates the timing analysis (paper Fig. 9:
// Δ_initial ≈ 3 s, sub-second iterations, periodic cloud calls).
func BenchmarkFig9Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(experiments.Fig9Opts{Env: benchEnv(), Seconds: 20})
		if err != nil {
			b.Fatal(err)
		}
		if r.InitialOverhead <= 0 {
			b.Fatal("no initial overhead")
		}
	}
}

// BenchmarkFig10Seizure regenerates the lead-time accuracy analysis
// (paper Fig. 10: EMAP ≈ 94% vs SoA [13] ≈ 93%).
func BenchmarkFig10Seizure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(experiments.Fig10Opts{
			Env: benchEnv(), Batches: 1, PerBatch: 4,
			Leads: []int{15, 60}, WindowsPerInput: 12,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Fidelity regenerates the retrieval-fidelity comparison
// (paper Fig. 11: Algorithm 1 ≈ exhaustive).
func BenchmarkFig11Fidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(experiments.Fig11Opts{
			Env: benchEnv(), InputsPerClass: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI regenerates the multi-anomaly accuracy table (paper
// Table I: seizure ≈ 0.94, encephalopathy ≈ 0.73, stroke ≈ 0.79).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(experiments.Table1Opts{
			Env: benchEnv(), Batches: 1, PerBatch: 4,
			WindowsPerInput: 12, NormalInputs: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSession measures one full monitoring second through
// the public API (acquire → search/track → predict).
func BenchmarkEndToEndSession(b *testing.B) {
	gen := emap.NewGenerator(1)
	store, err := emap.BuildMDB(gen.TrainingRecordings(3, 2))
	if err != nil {
		b.Fatal(err)
	}
	input := gen.SeizureInput(0, 30, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := emap.NewSession(store, emap.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Process(input, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloudSearchParallel measures pipelined cloud searches on
// one shared connection: every parallel worker issues uploads through
// the same client, so the worker pool, the batching collector and
// request-ID matching are all on the hot path. The sub-benchmarks
// sweep the scan-once-serve-many layers on the same store — nobatch is
// the PR-1 behaviour (every upload pays its own shard scan), batch
// coalesces concurrent uploads into one pass, batch+cache additionally
// answers repeated windows without scanning. SetParallelism(8) keeps
// ≥8 concurrent clients in flight, the regime batching exists for.
func BenchmarkCloudSearchParallel(b *testing.B) {
	gen := emap.NewGenerator(1)
	store, err := emap.BuildMDB(gen.TrainingRecordings(3, 2))
	if err != nil {
		b.Fatal(err)
	}
	input := gen.SeizureInput(0, 30, 5)
	window := input.Samples[1024:1280]
	for _, bc := range []struct {
		name string
		cfg  cloud.Config
	}{
		{"nobatch", cloud.Config{MaxBatch: 1, CacheSize: -1}},
		{"batch", cloud.Config{CacheSize: -1}},
		{"batch+cache", cloud.Config{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := cloud.NewServer(store, bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(l)
			defer srv.Close()
			client, err := edge.Dial(l.Addr().String(), 5*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()

			ctx := context.Background()
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := client.Search(ctx, window); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(srv.Metrics.PeakInFlight.Load()), "peak-in-flight")
			b.ReportMetric(srv.Metrics.BatchSizeMean(), "batch-size-mean")
			if n := srv.Metrics.Requests.Load(); n > 0 {
				b.ReportMetric(float64(srv.Metrics.CacheHits.Load())/float64(n), "cache-hit-ratio")
			}
			b.ReportMetric(float64(srv.Metrics.Evaluations.Load())/float64(max(b.N, 1)), "ω-evals/op")
		})
	}
}

// BenchmarkCloudSearchMultiTenant measures the multi-tenant regime:
// one server process, N tenants with independent stores, parallel
// clients pinned per-tenant issuing pipelined v3 searches. Batching
// only coalesces same-tenant uploads and each tenant owns its cache,
// so this is the isolation-under-load point on the perf trajectory;
// compare with BenchmarkCloudSearchParallel/batch+cache (one tenant,
// same total store size).
func BenchmarkCloudSearchMultiTenant(b *testing.B) {
	const tenants = 4
	reg, err := emap.NewRegistry("", 0)
	if err != nil {
		b.Fatal(err)
	}
	windows := make([][]float64, tenants)
	ids := make([]string, tenants)
	for ti := 0; ti < tenants; ti++ {
		// Each tenant's store draws from its own generator seed so
		// the searched content is genuinely per-tenant.
		gen := emap.NewGenerator(uint64(ti + 1))
		store, err := emap.BuildMDB(gen.TrainingRecordings(1, 2))
		if err != nil {
			b.Fatal(err)
		}
		ids[ti] = fmt.Sprintf("tenant-%d", ti)
		if err := reg.Adopt(ids[ti], store); err != nil {
			b.Fatal(err)
		}
		rec, _ := store.Record(store.RecordIDs()[ti%4])
		windows[ti] = rec.Samples[1024:1280]
	}
	srv, err := cloud.NewRegistryServer(reg, cloud.Config{})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	clients := make([]*edge.Client, tenants)
	for ti := range clients {
		clients[ti], err = edge.DialTenant(l.Addr().String(), ids[ti], 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer clients[ti].Close()
	}

	ctx := context.Background()
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ti := int(next.Add(1)-1) % tenants
		for pb.Next() {
			if _, err := clients[ti].Search(ctx, windows[ti]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(srv.Metrics.PeakInFlight.Load()), "peak-in-flight")
	b.ReportMetric(srv.Metrics.BatchSizeMean(), "batch-size-mean")
	if n := srv.Metrics.Requests.Load(); n > 0 {
		b.ReportMetric(float64(srv.Metrics.CacheHits.Load())/float64(n), "cache-hit-ratio")
	}
	b.ReportMetric(float64(srv.Metrics.Evaluations.Load())/float64(max(b.N, 1)), "ω-evals/op")
}

// BenchmarkKernelProfile compares one signal-set's FULL ω-numerator
// profile computed two ways: scalar dot products at every offset
// (O(n·L)) vs one cached-plan FFT multiply+inverse (O(L log L)). No
// search runs on the FFT profile any more — the exhaustive baseline is
// the lane walk at unit advance — and kernel.Engine stays only for the
// benchmark harness's probe of it.
func BenchmarkKernelProfile(b *testing.B) {
	gen := emap.NewGenerator(3)
	rec := gen.SeizureInput(0, 30, 10)
	const n, segLen = 256, 1255 // one-second query, full-coverage slice segment
	seg := rec.Samples[:segLen]
	q := dsp.ZNormalize(rec.Samples[segLen : segLen+n])
	b.Run("scalar", func(b *testing.B) {
		out := make([]float64, segLen-n+1)
		for i := 0; i < b.N; i++ {
			for beta := range out {
				out[beta] = kernel.Dot(q, seg[beta:beta+n])
			}
		}
	})
	b.Run("fft", func(b *testing.B) {
		e := kernel.NewEngine()
		p := e.Profiler(segLen)
		segSpec := make([]complex128, p.Bins())
		qSpec := make([]complex128, p.Bins())
		work := make([]complex128, p.Bins())
		profile := make([]float64, p.M())
		p.Spectrum(qSpec, q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Spectrum(segSpec, seg)
			p.Correlate(profile, segSpec, qSpec, work)
		}
	})
}

// BenchmarkQuantizedScan is the store's trajectory point: the production
// path — AlgorithmN's skip walk — over a store as BuildMDB leaves it and
// over its columnar snapshot loaded back. Both hold the same int16
// counts, so the two scans must evaluate exactly the same offsets;
// skip-ratio FAILS if the loaded store scans more than 1.25× slower
// than the built one in the same run, and the footprint sub-benchmark
// FAILS if either store holds more than 2.5 resident bytes per sample
// (2 for the counts, 0.25 for the block sums; the float64 form a record
// once had cost 24) — CI's bench smoke turns a store regression into a
// red job.
func BenchmarkQuantizedScan(b *testing.B) {
	gen := emap.NewGenerator(1)
	built, err := emap.BuildMDB(gen.TrainingRecordings(3, 2))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "mdb.col")
	if err := built.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	loaded, err := mdb.LoadColumnar(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	input := gen.SeizureInput(0, 30, 10)
	windows := make([][]float64, 8)
	for i := range windows {
		windows[i] = input.Samples[i*256 : i*256+256]
	}
	skipLoaded := emap.NewSearcher(loaded, emap.SearchParams{})
	skipBuilt := emap.NewSearcher(built, emap.SearchParams{})
	skipScan := func(b *testing.B, s *search.Searcher) (time.Duration, int) {
		t0 := time.Now()
		r, err := s.AlgorithmN(windows)
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(t0), r.Evaluated
	}
	b.Run("skip-loaded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skipScan(b, skipLoaded)
		}
	})
	b.Run("skip-built", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skipScan(b, skipBuilt)
		}
	})
	b.Run("skip-ratio", func(b *testing.B) {
		// Best of three alternating scans per side and iteration: box
		// noise only ever slows a scan, and at -benchtime 1x a single
		// sample per side would gate on it.
		bestLoaded, bestBuilt := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for i := 0; i < 3*b.N; i++ {
			dl, el := skipScan(b, skipLoaded)
			db, eb := skipScan(b, skipBuilt)
			bestLoaded, bestBuilt = min(bestLoaded, dl), min(bestBuilt, db)
			if el != eb {
				b.Fatalf("the same counts walked differently: %d evaluations loaded, %d built", el, eb)
			}
		}
		ratio := float64(bestLoaded) / float64(max(bestBuilt, 1))
		b.ReportMetric(ratio, "loaded/built")
		if ratio > 1.25 {
			b.Fatalf("the skip scan over a loaded snapshot costs %.2fx the one over the built store (want <= 1.25x)", ratio)
		}
	})
	b.Run("footprint", func(b *testing.B) {
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			_ = loaded.Snapshot()
		}
		samples := float64(built.Snapshot().TotalSamples())
		b.ReportMetric(float64(st.Size())/samples, "disk-B/sample")
		for name, store := range map[string]*mdb.Store{"built": built, "loaded": loaded} {
			ts := store.TierStats()
			perSample := float64(ts.HotBytes+ts.WarmBytes) / samples
			b.ReportMetric(perSample, name+"-resident-B/sample")
			if ts.HotBytes != 0 || perSample > 2.5 {
				b.Fatalf("%s store holds %.2f resident bytes per sample, %d of them hot (want <= 2.5, none hot)", name, perSample, ts.HotBytes)
			}
		}
	})
}

// BenchmarkPipelineThroughput measures a live stream end to end:
// windows pushed through the session's driver against the same store,
// single channel vs an 8-channel montage (one worker steps every
// channel's controller in turn). chan-windows/s counts per-channel
// windows, so it shows what a montage saves over N single streams: the
// per-stream set-up and the per-slot hand-off are paid once.
func BenchmarkPipelineThroughput(b *testing.B) {
	gen := emap.NewGenerator(1)
	store, err := emap.BuildMDB(gen.TrainingRecordings(3, 2))
	if err != nil {
		b.Fatal(err)
	}
	const windows = 12
	const wlen = 256
	input := gen.SeizureInput(0, 30, windows)
	ctx := context.Background()

	b.Run("channels=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sess, err := emap.NewSession(store, emap.Config{})
			if err != nil {
				b.Fatal(err)
			}
			stream, err := sess.Start(ctx)
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for range stream.Reports() {
				}
			}()
			for k := 0; k < windows; k++ {
				if err := stream.Push(input.Samples[k*wlen : (k+1)*wlen]); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := stream.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(windows*b.N)/b.Elapsed().Seconds(), "chan-windows/s")
	})

	b.Run("channels=8", func(b *testing.B) {
		const channels = 8
		for i := 0; i < b.N; i++ {
			sess, err := emap.NewSession(store, emap.Config{Channels: channels})
			if err != nil {
				b.Fatal(err)
			}
			mst, err := sess.StartMulti(ctx)
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for range mst.Reports() {
				}
			}()
			for k := 0; k < windows; k++ {
				row := make(emap.MultiWindow, channels)
				for c := range row {
					row[c] = input.Samples[k*wlen : (k+1)*wlen]
				}
				if err := mst.Push(row); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := mst.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(channels*windows*b.N)/b.Elapsed().Seconds(), "chan-windows/s")
	})
}

// BenchmarkMDBConstruction measures the full corpus-to-store pipeline.
func BenchmarkMDBConstruction(b *testing.B) {
	gen := emap.NewGenerator(1)
	recs := gen.TrainingRecordings(2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emap.BuildMDB(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDegradedRecovery measures the resilience subsystem's key
// latency: the time from the moment a severed edge↔cloud link heals to
// the first slot that tracks a freshly re-adopted correlation set. A
// netsim partition cuts a live TCP session mid-stream, the device
// rides out the outage in degraded mode (retrying with backoff), and
// the clock runs from Heal until Status shows healthy tracking again.
func BenchmarkDegradedRecovery(b *testing.B) {
	gen := emap.NewGenerator(7)
	store, err := emap.BuildMDB(gen.TrainingRecordings(2, 2))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := cloud.NewServer(store, cloud.Config{HorizonSeconds: 16})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	part := netsim.NewPartition()
	go srv.Serve(part.Listen(l))
	defer srv.Close()

	quick := backoff.Policy{Min: 2 * time.Millisecond, Max: 20 * time.Millisecond}
	input := gen.SeizureInput(0, 30, 120)
	windows := len(input.Samples) / 256
	var recovery time.Duration

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		part.Heal()
		client, err := edge.DialOpts(l.Addr().String(), edge.ClientOptions{
			DialTimeout:    time.Second,
			RedialAttempts: 2,
			Redial:         quick,
		})
		if err != nil {
			b.Fatal(err)
		}
		dev, err := edge.NewDevice(client, edge.Config{
			CloudTimeout:   2 * time.Second,
			Refresh:        quick,
			RefreshRetries: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		k := 0
		for ; k < 10; k++ {
			if _, err := dev.Push(context.Background(), input.Samples[k*256:(k+1)*256]); err != nil {
				b.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		part.Split()
		for ; k < 25; k++ {
			if _, err := dev.Push(context.Background(), input.Samples[k*256:(k+1)*256]); err != nil {
				b.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		part.Heal()
		healed := time.Now()
		b.StartTimer()
		recovered := false
		for ; k < windows; k++ {
			st, err := dev.Push(context.Background(), input.Samples[k*256:(k+1)*256])
			if err != nil {
				b.Fatal(err)
			}
			if st.Tracking && !st.Degraded && st.Remaining > 0 {
				recovered = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		b.StopTimer()
		if !recovered {
			b.Fatal("device never recovered after heal")
		}
		recovery += time.Since(healed)
		dev.Close()
		client.Close()
	}
	b.ReportMetric(float64(recovery.Milliseconds())/float64(max(b.N, 1)), "heal-to-readopt-ms")
}

// BenchmarkClusterSearchParallel measures the cluster's scale-out: the
// same multi-tenant search workload pushed through the router at a
// 1-node and a 3-node ring, with each node's worker pool pinned small
// (2) so aggregate node capacity — not a single process's GOMAXPROCS —
// is the scaling axis. Tenant stores are adopted directly onto their
// ring owners (the wire-ingest path has its own benches); clients dial
// only the router. On a multi-core host the nodes=3 run should clear
// 1.5× the nodes=1 aggregate throughput; on a single core the runs
// collapse to the same CPU and the ratio only reflects routing
// overhead.
func BenchmarkClusterSearchParallel(b *testing.B) {
	for _, nodeCount := range []int{1, 3} {
		b.Run(fmt.Sprintf("nodes=%d", nodeCount), func(b *testing.B) {
			benchClusterSearch(b, nodeCount)
		})
	}
}

func benchClusterSearch(b *testing.B, nodeCount int) {
	const tenants = 6
	ctx := context.Background()
	type benchNode struct {
		node *cluster.Node
		reg  *emap.Registry
	}
	nodes := map[string]*benchNode{}
	var members []proto.RingNode
	for i := 0; i < nodeCount; i++ {
		id := fmt.Sprintf("bench-node-%d", i)
		reg, err := emap.NewRegistry("", 0)
		if err != nil {
			b.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		n, err := cluster.NewNode(reg, cluster.NodeConfig{
			ID:    id,
			Addr:  l.Addr().String(),
			Cloud: cloud.Config{Workers: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		go n.Serve(l)
		defer n.Close()
		nodes[id] = &benchNode{node: n, reg: reg}
		members = append(members, proto.RingNode{ID: id, Addr: l.Addr().String()})
	}
	router := cluster.NewRouter(cluster.RouterConfig{})
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go router.Serve(rl)
	defer router.Close()
	if err := router.SetNodes(ctx, members); err != nil {
		b.Fatal(err)
	}

	ring := router.Ring()
	windows := make([][]float64, tenants)
	clients := make([]*edge.Client, tenants)
	for ti := 0; ti < tenants; ti++ {
		id := fmt.Sprintf("tenant-%d", ti)
		gen := emap.NewGenerator(uint64(ti + 1))
		store, err := emap.BuildMDB(gen.TrainingRecordings(1, 2))
		if err != nil {
			b.Fatal(err)
		}
		owner, _ := ring.Owner(id)
		if err := nodes[owner.ID].reg.Adopt(id, store); err != nil {
			b.Fatal(err)
		}
		rec, _ := store.Record(store.RecordIDs()[ti%4])
		windows[ti] = rec.Samples[1024:1280]
		clients[ti], err = edge.DialTenant(rl.Addr().String(), id, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer clients[ti].Close()
	}

	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ti := int(next.Add(1)-1) % tenants
		for pb.Next() {
			if _, err := clients[ti].Search(ctx, windows[ti]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	var served int64
	for _, bn := range nodes {
		served += bn.node.Engine().Metrics.Requests.Load()
	}
	b.ReportMetric(float64(served)/float64(max(b.N, 1)), "node-requests/op")
	b.ReportMetric(float64(router.Routing.MovedRetries.Load()), "moved-retries")
}

// BenchmarkIngestWAL prices the durability guarantee: the cloud
// ingest path with no journal versus each WAL fsync policy
// (DESIGN.md §16). The interval_vs_never sub-benchmark times both
// relaxed policies in one run, reports the ratio, and FAILS if
// piggybacked group fsync costs more than 1.5x the unsynced path —
// the acceptance bound that makes `interval` the deployable default
// when per-ingest fsync is too slow for the ward's offered load.
func BenchmarkIngestWAL(b *testing.B) {
	gen := emap.NewGenerator(1)
	samples := gen.SeizureInput(0, 30, 10).Samples[:1024]
	counts, scale := proto.Quantize(samples)
	mkIngest := func(id string, seq uint32) *proto.Ingest {
		return &proto.Ingest{Seq: seq, RecordID: id, Onset: -1, Scale: scale, Samples: counts}
	}
	mkServer := func(b *testing.B, policy string) *cloud.Server {
		cfg := cloud.Config{SliceLen: 256, CacheSize: -1}
		if policy != "nowal" {
			p, err := wal.ParsePolicy(policy)
			if err != nil {
				b.Fatal(err)
			}
			cfg.WALDir = b.TempDir()
			cfg.WALSync = p
		}
		reg, err := mdb.NewRegistry(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := cloud.NewRegistryServer(reg, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return srv
	}
	for _, policy := range []string{"nowal", "always", "interval", "never"} {
		b.Run(policy, func(b *testing.B) {
			srv := mkServer(b, policy)
			defer srv.Close()
			b.SetBytes(int64(len(counts) * 2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Ingest("bench", mkIngest(fmt.Sprintf("rec-%d", i), uint32(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("interval_vs_never", func(b *testing.B) {
		const burst = 64
		intervalSrv := mkServer(b, "interval")
		defer intervalSrv.Close()
		neverSrv := mkServer(b, "never")
		defer neverSrv.Close()
		// Warm both servers so neither side pays first-touch costs
		// (tenant open, log creation, slice-index growth) on the clock.
		var seq uint32
		ingest := func(srv *cloud.Server, id string) {
			seq++
			if _, err := srv.Ingest("bench", mkIngest(id, seq)); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			ingest(intervalSrv, fmt.Sprintf("warm-i-%d", i))
			ingest(neverSrv, fmt.Sprintf("warm-n-%d", i))
		}
		var intervalNs, neverNs int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			for j := 0; j < burst; j++ {
				ingest(intervalSrv, fmt.Sprintf("i-%d-%d", i, j))
			}
			t1 := time.Now()
			for j := 0; j < burst; j++ {
				ingest(neverSrv, fmt.Sprintf("n-%d-%d", i, j))
			}
			intervalNs += t1.Sub(t0).Nanoseconds()
			neverNs += time.Since(t1).Nanoseconds()
		}
		ratio := float64(intervalNs) / float64(max(neverNs, 1))
		b.ReportMetric(ratio, "interval/never")
		if ratio > 1.5 {
			b.Fatalf("piggybacked group fsync costs %.2fx the unsynced path (bound 1.5x)", ratio)
		}
	})
}
