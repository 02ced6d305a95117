package proto

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
)

// samplePatterns returns sample blocks of length n that exercise the
// sign bit, both rails and every byte value in both halves of a count.
func samplePatterns(n int) [][]int16 {
	rails := make([]int16, n)
	ones := make([]int16, n)
	ramp := make([]int16, n)
	for i := range rails {
		switch i % 3 {
		case 0:
			rails[i] = math.MinInt16
		case 1:
			rails[i] = math.MaxInt16
		default:
			rails[i] = -1
		}
		ones[i] = -1
		ramp[i] = int16(i*257 - 30000)
	}
	return [][]int16{rails, ones, ramp}
}

// TestSampleCodecRoutesAgree: the bulk route and the portable loop are
// one codec. The portable route is held to the wire definition
// (little-endian two's complement, sample by sample) on every host;
// the bulk route is held to the portable one wherever it is the route
// in use.
func TestSampleCodecRoutesAgree(t *testing.T) {
	lengths := []int{255, 256, 257, 2048}
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for pi, s := range samplePatterns(n) {
			want := make([]byte, 2*n)
			for i, v := range s {
				binary.LittleEndian.PutUint16(want[2*i:], uint16(v))
			}
			// One guard byte either side: a route must not write
			// outside its block.
			enc := make([]byte, 2*n+2)
			enc[0], enc[2*n+1] = 0xA5, 0x5A
			putSamplesPortable(enc[1:1+2*n], s)
			if !bytes.Equal(enc[1:1+2*n], want) || enc[0] != 0xA5 || enc[2*n+1] != 0x5A {
				t.Fatalf("n=%d pattern %d: portable encode diverges from the wire definition", n, pi)
			}
			dec := make([]int16, n)
			getSamplesPortable(dec, want)
			for i := range s {
				if dec[i] != s[i] {
					t.Fatalf("n=%d pattern %d: portable decode sample %d = %d, want %d", n, pi, i, dec[i], s[i])
				}
			}
			// The entry primitive, by this host's route, is header, count
			// and the portable block.
			e := CorrEntry{SetID: int32(n), Omega: -0.5, Beta: int32(pi), Anomalous: n%2 == 1, Class: 2, Archetype: 0x0102, Scale: 0.25}
			h := MakeCorrHeader(&e)
			entry := AppendCorrEntry([]byte{0xA5}, &h, s)
			wantEntry := binary.LittleEndian.AppendUint32(append([]byte{0xA5}, h[:]...), uint32(n))
			if !bytes.Equal(entry, append(wantEntry, want...)) {
				t.Fatalf("n=%d pattern %d: AppendCorrEntry diverges from header + count + portable block", n, pi)
			}
			if !hostLittleEndian {
				continue // the bulk route is not this host's
			}
			bulk := make([]byte, 2*n+2)
			bulk[0], bulk[2*n+1] = 0xA5, 0x5A
			putSamplesBulk(bulk[1:1+2*n], s)
			if !bytes.Equal(bulk, enc) {
				t.Fatalf("n=%d pattern %d: bulk encode != portable encode", n, pi)
			}
			// Decode from an odd offset: the byte side needs no
			// alignment.
			bdec := make([]int16, n)
			getSamplesBulk(bdec, bulk[1:1+2*n])
			for i := range s {
				if bdec[i] != dec[i] {
					t.Fatalf("n=%d pattern %d: bulk decode sample %d = %d, portable %d", n, pi, i, bdec[i], dec[i])
				}
			}
		}
	}
}

func bigCorrSet() *CorrSet {
	entries := make([]CorrEntry, 100)
	for i := range entries {
		entries[i] = CorrEntry{SetID: int32(i), Omega: 0.9, Beta: int32(7 * i), Anomalous: i%2 == 1,
			Scale: 0.01, Samples: samplePatterns(2048 - i)[2]}
	}
	return &CorrSet{Seq: 9, Entries: entries}
}

// TestEncodeCorrSetExactSize: the size function the encoder and the
// cloud's selection share is exact — an entry is its 20 header bytes, a
// 4-byte sample count and its samples — so an encoding is allocated once
// at its final size, and the entry primitive appending into a buffer
// that large allocates nothing and writes the same bytes.
func TestEncodeCorrSetExactSize(t *testing.T) {
	sizeOf := func(c *CorrSet) int {
		samples := 0
		for _, e := range c.Entries {
			samples += len(e.Samples)
		}
		return CorrSetSize(len(c.Entries), samples)
	}
	for _, c := range []*CorrSet{{}, {Entries: []CorrEntry{{}}}, bigCorrSet()} {
		enc := EncodeCorrSet(c)
		if len(enc) != sizeOf(c) || cap(enc) != len(enc) {
			t.Fatalf("%d entries: len %d cap %d, CorrSetSize %d", len(c.Entries), len(enc), cap(enc), sizeOf(c))
		}
	}
	c := bigCorrSet()
	if n := testing.AllocsPerRun(20, func() { _ = EncodeCorrSet(c) }); n != 1 {
		t.Fatalf("EncodeCorrSet: %v allocations, want 1", n)
	}
	heads := make([]CorrHeader, len(c.Entries))
	for i := range heads {
		heads[i] = MakeCorrHeader(&c.Entries[i])
		if got := heads[i].Entry(); got.Samples != nil || MakeCorrHeader(&got) != heads[i] {
			t.Fatalf("entry %d: header does not decode to the fields it encodes", i)
		}
	}
	buf := make([]byte, 0, sizeOf(c))
	if n := testing.AllocsPerRun(20, func() {
		buf = AppendCorrSetHeader(buf[:0], c.Seq, len(heads))
		for i := range heads {
			buf = AppendCorrEntry(buf, &heads[i], c.Entries[i].Samples)
		}
	}); n != 0 {
		t.Fatalf("AppendCorrEntry into a large-enough buffer: %v allocations, want 0", n)
	}
	if !bytes.Equal(buf, EncodeCorrSet(c)) {
		t.Fatal("entry by entry and EncodeCorrSet disagree")
	}
}

// TestRequestEncodersExactSize: the same for the two request encoders
// the edge client appends into its scratch.
func TestRequestEncodersExactSize(t *testing.T) {
	u := &Upload{Seq: 1, Scale: 0.5, Samples: make([]int16, 256), Priority: PriAnomaly}
	if enc := EncodeUpload(u); cap(enc) != len(enc) {
		t.Fatalf("EncodeUpload: len %d cap %d", len(enc), cap(enc))
	}
	g := &Ingest{RecordID: "rec-1", Samples: make([]int16, 1024)}
	if enc := EncodeIngest(g); cap(enc) != len(enc) {
		t.Fatalf("EncodeIngest: len %d cap %d", len(enc), cap(enc))
	}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(20, func() { buf = AppendIngest(AppendUpload(buf[:0], u), g) }); n != 0 {
		t.Fatalf("append encoders into a large-enough buffer: %v allocations, want 0", n)
	}
}

// TestDecodeCorrSetAllocations: a decode is three allocations — the
// set, its entries, one backing array for every entry's samples — and
// the entries' sample slices do not overlap or run into each other.
func TestDecodeCorrSetAllocations(t *testing.T) {
	c := bigCorrSet()
	raw := EncodeCorrSet(c)
	if n := testing.AllocsPerRun(20, func() { _, _ = DecodeCorrSet(raw) }); n != 3 {
		t.Fatalf("DecodeCorrSet: %v allocations, want 3", n)
	}
	got, err := DecodeCorrSet(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Entries {
		s := got.Entries[i].Samples
		if cap(s) != len(s) {
			t.Fatalf("entry %d: samples cap %d > len %d — an append would overwrite entry %d", i, cap(s), len(s), i+1)
		}
	}
	got.Entries[0].Samples[0] = 12345
	got.Entries[0].Samples = append(got.Entries[0].Samples, 777)
	if got.Entries[1].Samples[0] != c.Entries[1].Samples[0] {
		t.Fatal("appending to entry 0's samples clobbered entry 1")
	}
	if !bytes.Equal(EncodeCorrSet(c), raw) {
		t.Fatal("decoded set aliases the payload it was decoded from")
	}
}

// TestDecodeCorrSetRejectsLyingCounts: every length the payload states
// is checked against the bytes that are actually there before anything
// is sized from it.
func TestDecodeCorrSetRejectsLyingCounts(t *testing.T) {
	good := EncodeCorrSet(&CorrSet{Seq: 1, Entries: []CorrEntry{
		{SetID: 1, Samples: []int16{1, 2, 3}}, {SetID: 2, Samples: []int16{4}}}})
	if _, err := DecodeCorrSet(good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"entry count beyond the payload": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 3)
			return b
		}),
		"entry count 2^20 in a small payload": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 1<<20)
			return b
		}),
		"sample count promising 2^31 samples": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8+20:], 1<<31)
			return b
		}),
		"sample count one past the end": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-6:], 2)
			return b
		}),
		"anomaly flag 2":     mutate(func(b []byte) []byte { b[8+12] = 2; return b }),
		"trailing byte":      append(append([]byte(nil), good...), 0),
		"truncated samples":  good[:len(good)-1],
		"truncated entry":    good[:8+corrEntryFixed-1],
		"truncated preamble": good[:7],
	}
	for name, raw := range cases {
		if _, err := DecodeCorrSet(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The bound holds for rejected input too: a lying count must fail
	// before the allocation it asks for.
	for _, name := range []string{"sample count promising 2^31 samples", "entry count 2^20 in a small payload"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			_, _ = DecodeCorrSet(cases[name])
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / 100; perCall > 1024 {
			t.Errorf("%s: rejected only after allocating %d bytes", name, perCall)
		}
	}
}

// poolState returns the capacities of the pool's free buffers.
func poolState() (caps []int) {
	bufPool.mu.Lock()
	defer bufPool.mu.Unlock()
	for _, f := range bufPool.free {
		if f != nil {
			caps = append(caps, cap(f))
		}
	}
	slices.Sort(caps)
	return caps
}

// TestBufferPool: the reply buffer pool recycles, serves a request from
// the smallest free buffer that holds it, never enters a buffer above
// its largest size or a slice that is not its own, gives up its
// smallest entry when every slot is taken — and holds what it holds
// outright: a collection between a Put and a Get changes nothing.
func TestBufferPool(t *testing.T) {
	bufPool.mu.Lock() // start from an empty pool whatever ran before
	bufPool.free = [poolSlots][]byte{}
	bufPool.mu.Unlock()

	const n = 100_000
	b := GetBuffer(n)
	if len(b) != n || cap(b) != 128<<10 {
		t.Fatalf("GetBuffer(%d): len %d cap %d, want capacity 128 KiB", n, len(b), cap(b))
	}
	PutBuffer(b)
	// The pool's hit rate must not be a function of GC cadence.
	runtime.GC()
	runtime.GC()
	again := GetBuffer(n - 1)
	if &again[0] != &b[0] || cap(again) != 128<<10 {
		t.Fatal("a released buffer was not reused by the next request it fits, a collection later")
	}
	PutBuffer(again)
	// A larger free buffer stands in for a smaller request; with a
	// choice, the smallest that fits is taken.
	small := GetBuffer(8 << 10)
	if &small[0] != &b[0] {
		t.Fatal("a free 128 KiB buffer did not serve an 8 KiB request")
	}
	big := GetBuffer(300_000)
	PutBuffer(big)
	PutBuffer(small)
	if got := GetBuffer(8 << 10); &got[0] != &b[0] {
		t.Fatal("best fit passed over the smaller free buffer")
	}
	if got := GetBuffer(8 << 10); &got[0] != &big[0] {
		t.Fatal("the remaining free buffer was not used")
	}

	// Above the largest size — a hostile 16 MiB frame — a buffer is
	// allocated at its size and never entered.
	huge := GetBuffer(MaxPayload + 4)
	if len(huge) != MaxPayload+4 {
		t.Fatalf("GetBuffer(MaxPayload+4): len %d", len(huge))
	}
	PutBuffer(huge)
	pow := make([]byte, 16<<20) // a power of two, still too large
	PutBuffer(pow)
	// Foreign capacities are ignored: an encoder's exact-size payload,
	// a sub-slice of a pooled buffer, a small slice, nil.
	foreign := make([]byte, n)
	PutBuffer(foreign)
	own := GetBuffer(n)
	PutBuffer(own[4:])
	PutBuffer(make([]byte, 16))
	PutBuffer(nil)
	if caps := poolState(); len(caps) != 0 {
		t.Fatalf("PutBuffer entered slices that are not the pool's: capacities %v", caps)
	}
	// Below the smallest size a request is an ordinary allocation.
	if tiny := GetBuffer(100); cap(tiny) != 100 {
		t.Fatalf("GetBuffer(100): cap %d", cap(tiny))
	}

	// Every slot taken: the smallest entry makes room for a larger
	// newcomer, a smaller newcomer is dropped.
	var held [][]byte
	for i := 0; i < poolSlots; i++ {
		held = append(held, GetBuffer(16<<10))
	}
	small8 := GetBuffer(8 << 10)
	large := GetBuffer(64 << 10)
	for _, h := range held {
		PutBuffer(h)
	}
	PutBuffer(small8)
	PutBuffer(large)
	want := slices.Repeat([]int{16 << 10}, poolSlots-1)
	want = append(want, 64<<10)
	if caps := poolState(); !slices.Equal(caps, want) {
		t.Fatalf("full pool holds capacities %v, want %v", caps, want)
	}
}

// TestFrameIOAllocations: a connection's reader and writer frame
// without allocating beyond the payload itself.
func TestFrameIOAllocations(t *testing.T) {
	payload := make([]byte, 600)
	var wire bytes.Buffer
	fw := NewFrameWriter(&wire)
	if n := testing.AllocsPerRun(50, func() {
		wire.Reset()
		if err := fw.WriteFrame(TypeUpload, 7, "ward-7", payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("FrameWriter.WriteFrame: %v allocations per frame, want 0", n)
	}
	frame := append([]byte(nil), wire.Bytes()...)
	rd := bytes.NewReader(frame)
	fr := NewFrameReader(rd)
	if n := testing.AllocsPerRun(50, func() {
		rd.Reset(frame)
		f, err := fr.ReadFrame()
		if err != nil || f.Tenant != "ward-7" || f.ID != 7 || len(f.Payload) != len(payload) {
			t.Fatalf("frame %+v, err %v", f, err)
		}
	}); n != 1 {
		t.Fatalf("FrameReader.ReadFrame: %v allocations per frame, want 1 (the payload)", n)
	}

	// A correlation set is read into a pool buffer: a reader whose
	// consumer releases it allocates nothing per frame.
	wire.Reset()
	if err := fw.WriteFrame(TypeCorrSet, 8, "ward-7", EncodeCorrSet(bigCorrSet())); err != nil {
		t.Fatal(err)
	}
	frame = append([]byte(nil), wire.Bytes()...)
	if n := testing.AllocsPerRun(50, func() {
		rd.Reset(frame)
		f, err := fr.ReadFrame()
		if err != nil || f.Type != TypeCorrSet || cap(f.Payload)&(cap(f.Payload)-1) != 0 {
			t.Fatalf("frame type %d cap %d, err %v", f.Type, cap(f.Payload), err)
		}
		PutBuffer(f.Payload)
	}); n != 0 {
		t.Fatalf("FrameReader.ReadFrame of a released CorrSet: %v allocations per frame, want 0", n)
	}
}
