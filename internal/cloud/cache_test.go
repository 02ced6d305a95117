package cloud

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/synth"
)

// roundTrip sends one upload over conn and returns the reply frame.
func roundTrip(t *testing.T, conn net.Conn, id uint32, payload []byte) proto.Frame {
	t.Helper()
	if err := proto.WriteFrameV2(conn, proto.TypeUpload, id, payload); err != nil {
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
// must echo its own upload's Seq, since the cache holds one encoding
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
// if a hit patches the shared cached bytes instead of its own copy, or
// a reply buffer is released while another request still uses it.
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
				if err := proto.WriteFrameV2(cConn, proto.TypeUpload, base+i, encode(^(base + i))); err != nil {
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
// window is never materialised, and the reply is a recycled pool buffer
// — released here the way the transport's writer releases it.
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

// windowFingerprint keys a µV window the way serveUpload keys an
// upload's counts, as a string.
func windowFingerprint(window []float64) (string, bool) {
	key, ok := appendWindowKey(nil, append([]float64(nil), window...))
	return string(key), ok
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
	w1 := proto.Dequantize(counts1, scale1)
	counts2, scale2 := proto.Quantize(w1) // second trip through the wire
	w2 := proto.Dequantize(counts2, scale2)

	k1, ok1 := windowFingerprint(w1)
	k2, ok2 := windowFingerprint(w2)
	if !ok1 || !ok2 {
		t.Fatal("fingerprint rejected a live window")
	}
	if k1 != k2 {
		t.Fatal("re-quantization noise split the cache key")
	}
	k3, _ := windowFingerprint(input.Samples[512:768])
	if k3 == k1 {
		t.Fatal("distinct windows collided on one cache key")
	}
	if _, ok := windowFingerprint(make([]float64, 256)); ok {
		t.Fatal("flat window produced a fingerprint")
	}
}
