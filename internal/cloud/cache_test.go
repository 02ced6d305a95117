package cloud

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"emap/internal/dsp"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/synth"
)

// roundTrip sends one upload over conn and returns the reply frame.
func roundTrip(t *testing.T, conn net.Conn, id uint32, payload []byte) proto.Frame {
	t.Helper()
	if err := proto.NewFrameWriter(conn).WriteFrame(proto.TypeUpload, id, "", payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := proto.ReadFrameAny(conn)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// storedUpload quantizes a one-second window cut out of the store's own
// data — a window certain to retrieve a non-empty correlation set (the
// generator's held-out draws need not match anything in so small a
// store, and an empty set would make a reply comparison trivial).
func storedUpload(t *testing.T, store *mdb.Store) (counts []int16, scale float32) {
	t.Helper()
	snap := store.Snapshot()
	window, ok := snap.Window(snap.Sets()[3], 100, 256)
	if !ok {
		t.Fatal("store too small to cut a window from")
	}
	return proto.Quantize(window)
}

// TestCacheReplyByteIdentical: the miss that fills the cache, the hit
// served from it and a from-scratch search of the same quantized window
// must produce the same correlation set byte for byte — and each reply
// must echo its own upload's Seq, since the cache holds one selection
// for every Seq that will ever ask for it.
func TestCacheReplyByteIdentical(t *testing.T) {
	store, _ := testStore(t)
	srv, err := NewServer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)

	counts, scale := storedUpload(t, store)
	upload := &proto.Upload{Seq: 7, Scale: scale, Samples: counts}
	again := &proto.Upload{Seq: 0xC0FFEE, Scale: scale, Samples: counts}

	first := roundTrip(t, cConn, 1, proto.EncodeUpload(upload))
	second := roundTrip(t, cConn, 2, proto.EncodeUpload(again))
	if first.Type != proto.TypeCorrSet || second.Type != proto.TypeCorrSet {
		t.Fatalf("reply types %d, %d", first.Type, second.Type)
	}
	if hits, misses := srv.Metrics.CacheHits.Load(), srv.Metrics.CacheMisses.Load(); hits != 1 || misses != 1 {
		t.Fatalf("cache hits=%d misses=%d, want 1/1", hits, misses)
	}
	// Both must equal what a from-scratch search computes, Seq included.
	for _, c := range []struct {
		name  string
		reply proto.Frame
		up    *proto.Upload
	}{{"miss", first, upload}, {"hit", second, again}} {
		fresh, err := srv.Search(c.up)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.reply.Payload, proto.EncodeCorrSet(fresh)) {
			t.Fatalf("%s reply diverges from a fresh search of the same window", c.name)
		}
	}
	if len(first.Payload) <= 8 {
		t.Fatal("test window matched nothing; the comparison is trivial")
	}
	if bytes.Equal(first.Payload[:4], second.Payload[:4]) {
		t.Fatal("the hit echoed the miss's Seq")
	}
	if !bytes.Equal(first.Payload[4:], second.Payload[4:]) {
		t.Fatal("cached reply is not byte-identical to the first reply past the Seq")
	}
}

// TestConcurrentHitsOwnTheirReplies: many requests hitting one cached
// key at once, over two connections, each with its own Seq. Every reply
// must arrive CRC-valid, carry exactly its request's Seq and otherwise
// equal the cached set — which fails (and the race detector reports)
// if a hit writes to anything it shares with another, or a reply buffer
// is released while another request still uses it.
func TestConcurrentHitsOwnTheirReplies(t *testing.T) {
	store, _ := testStore(t)
	srv, err := NewServer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts, scale := storedUpload(t, store)
	encode := func(seq uint32) []byte {
		return proto.EncodeUpload(&proto.Upload{Seq: seq, Scale: scale, Samples: counts})
	}
	fresh, err := srv.Search(&proto.Upload{Scale: scale, Samples: counts})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Entries) == 0 {
		t.Fatal("test window matched nothing; the replies would be trivial")
	}
	want := proto.EncodeCorrSet(fresh)[4:]

	const perConn = 64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		cConn, sConn := net.Pipe()
		defer cConn.Close()
		go srv.HandleConn(sConn)
		if c == 0 {
			roundTrip(t, cConn, 1, encode(1)) // fill the cache before the storm
		}
		base := uint32(1000 * (c + 1))
		wg.Add(2)
		// Pipelined: the writer runs ahead of the reader, so up to
		// MaxInFlight hits per connection are being served at once.
		go func() {
			defer wg.Done()
			for i := uint32(0); i < perConn; i++ {
				if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeUpload, base+i, "", encode(^(base + i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer cConn.Close() // a failed reader must not strand the writer on the pipe
			seen := make(map[uint32]bool)
			cConn.SetReadDeadline(time.Now().Add(30 * time.Second))
			for i := 0; i < perConn; i++ {
				f, err := proto.ReadFrameAny(cConn) // verifies the CRC
				if err != nil {
					t.Error(err)
					return
				}
				if f.Type != proto.TypeCorrSet || f.ID < base || f.ID >= base+perConn || seen[f.ID] {
					t.Errorf("unexpected reply: type %d id %d", f.Type, f.ID)
					return
				}
				seen[f.ID] = true
				if seq := binary.LittleEndian.Uint32(f.Payload); seq != ^f.ID {
					t.Errorf("reply %d carries Seq %#x, want %#x", f.ID, seq, ^f.ID)
				}
				if !bytes.Equal(f.Payload[4:], want) {
					t.Errorf("reply %d is not the cached correlation set", f.ID)
				}
			}
		}()
	}
	wg.Wait()
	if misses := srv.Metrics.CacheMisses.Load(); misses != 1 {
		t.Fatalf("%d cache misses, want exactly the one that filled the cache", misses)
	}
}

// TestServeFrameHitAllocations pins the cache-hit path's own garbage at
// nothing: decoding the upload (the message and its samples — measured
// here rather than assumed, since the race detector's build makes it
// three) is all a hit allocates. The fingerprint runs in stack
// scratch, the key is looked up without building a string, the float
// window is never materialised, and the reply is encoded from the cached
// selection into a recycled pool buffer — released here the way the
// transport's writer releases it.
func TestServeFrameHitAllocations(t *testing.T) {
	store, _ := testStore(t)
	srv, err := NewServer(store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts, scale := storedUpload(t, store)
	frame := proto.Frame{Version: proto.Version3, Type: proto.TypeUpload,
		Payload: proto.EncodeUpload(&proto.Upload{Seq: 3, Scale: scale, Samples: counts})}
	serve := func() {
		typ, reply := srv.ServeFrame(frame)
		if typ != proto.TypeCorrSet {
			t.Fatalf("reply type %d", typ)
		}
		proto.PutBuffer(reply)
	}
	serve() // the miss
	decode := testing.AllocsPerRun(100, func() { _, _ = proto.DecodeUpload(frame.Payload) })
	if n := testing.AllocsPerRun(100, serve); n != decode {
		t.Fatalf("cache-hit ServeFrame: %v allocations, DecodeUpload alone %v", n, decode)
	}
	if hits := srv.Metrics.CacheHits.Load(); hits < 100 {
		t.Fatalf("only %d cache hits; the pinned path was not the hit path", hits)
	}
}

// TestCacheNotSharedAcrossStoresOrParams: the cache must never serve a
// correlation set computed against a different store or with different
// search parameters. Caches are owned per server, so a second server —
// even one seeing the exact same upload — must miss and answer from
// its own search.
func TestCacheNotSharedAcrossStoresOrParams(t *testing.T) {
	storeA, g := testStore(t)
	// A different store: same generator family, different population.
	var recs []*synth.Recording
	for i := 0; i < 3; i++ {
		recs = append(recs, g.Instance(synth.Seizure, 0, synth.InstanceOpts{
			OffsetSamples: i * 4000, DurSeconds: 60}))
	}
	storeB, err := mdb.Build(recs, mdb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}

	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	counts, scale := proto.Quantize(input.Samples[1024:1280])
	upload := &proto.Upload{Seq: 3, Scale: scale, Samples: counts}
	payload := proto.EncodeUpload(upload)

	warm, err := NewServer(storeA, Config{})
	if err != nil {
		t.Fatal(err)
	}
	wc, ws := net.Pipe()
	defer wc.Close()
	go warm.HandleConn(ws)
	roundTrip(t, wc, 1, payload) // populate warm's cache

	for name, srv := range map[string]*Server{
		"other store":  mustServer(t, storeB, Config{}),
		"other params": mustServer(t, storeA, Config{Search: search.Params{TopK: 3}}),
	} {
		cConn, sConn := net.Pipe()
		go srv.HandleConn(sConn)
		reply := roundTrip(t, cConn, 1, payload)
		if hits := srv.Metrics.CacheHits.Load(); hits != 0 {
			t.Fatalf("%s: %d cache hits for a first-ever upload", name, hits)
		}
		fresh, err := srv.Search(upload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply.Payload, proto.EncodeCorrSet(fresh)) {
			t.Fatalf("%s: reply does not match that server's own search", name)
		}
		cConn.Close()
	}
}

func mustServer(t *testing.T, store *mdb.Store, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestCacheLRUBound: the cache must stay within CacheSize entries,
// evicting the least recently used.
func TestCacheLRUBound(t *testing.T) {
	c := newCorrCache(2)
	c.putAt(0, "a", nil)
	c.putAt(0, "b", nil)
	if _, _, ok := c.get([]byte("a")); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.putAt(0, "c", nil)
	if c.len() != 2 {
		t.Fatalf("cache grew to %d entries, cap 2", c.len())
	}
	if _, _, ok := c.get([]byte("b")); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, _, ok := c.get([]byte("a")); !ok {
		t.Fatal("recently used entry a was evicted")
	}
}

// TestCacheResetRejectsStalePut: a result computed before a reset (an
// ingest flushed the cache) must not be stored afterwards — it would
// re-poison the cache with pre-ingest correlation sets.
func TestCacheResetRejectsStalePut(t *testing.T) {
	c := newCorrCache(4)
	_, gen, _ := c.get([]byte("k")) // search observes the generation…
	c.reset()                       // …an ingest flushes the cache…
	c.putAt(gen, "k", nil)          // …the stale result must be dropped.
	if c.len() != 0 {
		t.Fatal("stale put survived a cache reset")
	}
	_, gen, _ = c.get([]byte("k"))
	c.putAt(gen, "k", nil)
	if c.len() != 1 {
		t.Fatal("fresh put rejected")
	}
	c.reset()
	if _, _, ok := c.get([]byte("k")); ok || c.len() != 0 {
		t.Fatal("entry survived a reset")
	}
}

// TestCacheResetEmptyAllocatesNothing: an ingest-only tenant resets an
// empty cache after every insert. That reset must still advance the
// generation (the test above, which resets an empty cache) and must
// not rebuild the key map to do it.
func TestCacheResetEmptyAllocatesNothing(t *testing.T) {
	c := newCorrCache(256)
	c.putAt(0, "k", nil)
	c.reset() // an emptied cache, not only a never-filled one
	if n := testing.AllocsPerRun(100, c.reset); n != 0 {
		t.Fatalf("reset of an empty cache allocates %v times", n)
	}
}

// referenceKey is the cache key as it was first constructed, kept as the
// definition the counts-only passes of appendFingerprint must reproduce:
// dequantize the window, z-normalize the floats (dsp.ZNormalizeTo), scale
// by √n·fingerprintSteps, round, saturate, pack.
func referenceKey(counts []int16, scale float32) (string, bool) {
	window := proto.Dequantize(counts, scale)
	if dsp.ZNormalizeTo(window, window) == 0 {
		return "", false
	}
	steps := fingerprintSteps * math.Sqrt(float64(len(window)))
	var key []byte
	for _, v := range window {
		q := math.Round(v * steps)
		if q > math.MaxInt16 {
			q = math.MaxInt16
		} else if q < math.MinInt16 {
			q = math.MinInt16
		}
		key = binary.LittleEndian.AppendUint16(key, uint16(int16(q)))
	}
	return string(key), true
}

// fingerprint keys an upload's counts the way serveUpload does, as a
// string.
func fingerprint(counts []int16, scale float32) (string, bool) {
	key, ok := appendFingerprint(nil, counts, scale)
	return string(key), ok
}

// TestFingerprintEqualsItsFloatConstruction: the key computed from the
// counts in three passes is, byte for byte, the key the dequantized
// window gives — on stored windows, noise at every amplitude the wire
// scale spans, rails, a spike that saturates the buckets, windows of
// other lengths than the stack scratch's, and the flat and empty windows
// both constructions refuse.
func TestFingerprintEqualsItsFloatConstruction(t *testing.T) {
	store, _ := testStore(t)
	type upload struct {
		counts []int16
		scale  float32
	}
	var cases []upload
	snap := store.Snapshot()
	for i, set := range snap.Sets() {
		if w, ok := snap.Window(set, (i*37)%500, 256); ok {
			counts, scale := proto.Quantize(w)
			cases = append(cases, upload{counts, scale})
		}
	}
	r := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 2, 3, 100, 256, 257, 1000} {
		for _, scale := range []float32{1.0 / 32000, 0.0123, 1, 3.7e4} {
			noise := make([]int16, n)
			for i := range noise {
				noise[i] = int16(r.Intn(65536) - 32768)
			}
			rails := make([]int16, n)
			for i := range rails {
				rails[i] = []int16{math.MinInt16, math.MaxInt16}[r.Intn(2)]
			}
			spike := make([]int16, n)
			spike[n/2] = math.MaxInt16
			cases = append(cases, upload{noise, scale}, upload{rails, scale}, upload{spike, scale},
				upload{make([]int16, n), scale}, upload{slices.Repeat([]int16{-7}, n), scale})
		}
	}
	cases = append(cases, upload{nil, 1})
	keyed := 0
	for i, c := range cases {
		got, ok := fingerprint(c.counts, c.scale)
		want, wantOK := referenceKey(c.counts, c.scale)
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("case %d (%d counts on %g): key from the counts differs from the key of their floats (ok %v, %v)", i, len(c.counts), c.scale, ok, wantOK)
		}
		if ok {
			keyed++
		}
	}
	if keyed < len(cases)/2 {
		t.Fatalf("only %d of %d windows produced a key", keyed, len(cases))
	}
}

// TestFingerprintToleratesRequantization: the same analogue window
// quantized twice through the wire format (fresh scale each time) must
// land on one cache key, while a different window must not.
func TestFingerprintToleratesRequantization(t *testing.T) {
	_, g := testStore(t)
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 5200, DurSeconds: 6, NoArtifacts: true})
	window := input.Samples[1024:1280]

	counts1, scale1 := proto.Quantize(window)
	counts2, scale2 := proto.Quantize(proto.Dequantize(counts1, scale1)) // second trip through the wire
	// A coarser grid than the quantizer would pick, as an edge with its
	// own gain would upload it.
	counts3 := make([]int16, len(window))
	proto.QuantizeTo(counts3, window, 3*float64(scale1))

	k1, ok1 := fingerprint(counts1, scale1)
	k2, ok2 := fingerprint(counts2, scale2)
	k3, ok3 := fingerprint(counts3, 3*scale1)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("fingerprint rejected a live window")
	}
	if k1 != k2 || k1 != k3 {
		t.Fatal("re-quantization noise split the cache key")
	}
	other, otherScale := proto.Quantize(input.Samples[512:768])
	if k4, _ := fingerprint(other, otherScale); k4 == k1 {
		t.Fatal("distinct windows collided on one cache key")
	}
	if _, ok := fingerprint(make([]int16, 256), 1); ok {
		t.Fatal("flat window produced a fingerprint")
	}
}
