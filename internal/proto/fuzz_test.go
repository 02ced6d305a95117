package proto

import (
	"bytes"
	"errors"
	"testing"
)

// frameBytes builds one well-formed frame as wire bytes.
func frameBytes(t testing.TB, version uint8, typ MsgType, id uint32, tenant string, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrameTenant(&buf, version, typ, id, tenant, payload); err != nil {
		t.Fatalf("WriteFrameTenant: %v", err)
	}
	return buf.Bytes()
}

// FuzzParseFrame drives ReadFrameAny with arbitrary wire bytes. The
// invariants: no panic, no over-allocation on corrupt length prefixes,
// and every frame that parses re-encodes to bytes that parse back to
// the same frame (the codec round-trips through its own output).
func FuzzParseFrame(f *testing.F) {
	upload := EncodeUpload(&Upload{Seq: 7, Scale: 0.5, Samples: []int16{1, -2, 3}})
	// Well-formed frames, so mutations explore the neighbourhood of
	// real traffic rather than bouncing off the magic check.
	f.Add(frameBytes(f, Version3, TypeUpload, 42, "ward-7", upload))
	f.Add(frameBytes(f, Version3, TypeIngest, 1, "t", EncodeIngest(&Ingest{RecordID: "r", Samples: []int16{5}})))
	f.Add(frameBytes(f, Version3, TypeMoved, 9, "t", EncodeMoved(&Moved{Tenant: "t", Addr: "h:1"})))
	// Truncated tenant: the header promises 200 tenant bytes but the
	// wire ends mid-identifier.
	longTenant := frameBytes(f, Version3, TypePing, 1, string(bytes.Repeat([]byte{'a'}, 200)), nil)
	f.Add(longTenant[:16])
	// Tenant length byte itself cut off.
	v3 := frameBytes(f, Version3, TypePing, 1, "tenant", nil)
	f.Add(v3[:8])
	// The retired layouts, which must be refused: v1 and v2 frames, a
	// v3 header glued onto a v1 frame's body, and a v1 frame whose
	// version byte claims v3 (so the v1 length field is misread as
	// request ID, and payload bytes as a tenant length).
	v1 := legacyFrame(1, TypeUpload, 0, upload)
	v2 := legacyFrame(2, TypeUpload, 42, upload)
	for _, old := range [][]byte{v1, v2} {
		if _, err := ReadFrameAny(bytes.NewReader(old)); !errors.Is(err, ErrBadVersion) {
			f.Fatalf("retired layout v%d: error %v, want ErrBadVersion", old[2], err)
		}
		f.Add(old)
	}
	mixed := append(append([]byte{}, v3[:8]...), v1[4:]...)
	f.Add(mixed)
	relabeled := append([]byte{}, v1...)
	relabeled[2] = Version3
	f.Add(relabeled)
	// Unknown future version.
	unknown := append([]byte{}, v1...)
	unknown[2] = 9
	f.Add(unknown)

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := ReadFrameAny(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		if frame.Version != Version3 {
			t.Fatalf("parsed a version-%d frame", frame.Version)
		}
		if len(frame.Tenant) > MaxTenantLen {
			t.Fatalf("parsed tenant longer than MaxTenantLen: %d", len(frame.Tenant))
		}
		if len(frame.Payload) > MaxPayload {
			t.Fatalf("parsed payload longer than MaxPayload: %d", len(frame.Payload))
		}
		var buf bytes.Buffer
		if err := WriteFrameTenant(&buf, frame.Version, frame.Type, frame.ID, frame.Tenant, frame.Payload); err != nil {
			t.Fatalf("re-encoding parsed frame: %v", err)
		}
		again, err := ReadFrameAny(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parsing re-encoded frame: %v", err)
		}
		if again.Version != frame.Version || again.Type != frame.Type ||
			again.ID != frame.ID || again.Tenant != frame.Tenant ||
			!bytes.Equal(again.Payload, frame.Payload) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", frame, again)
		}
	})
}

// FuzzDecodeCorrSet drives DecodeCorrSet with arbitrary payloads. The
// invariants: no panic; what an accepted payload makes the decoder
// allocate is bounded by the payload's own size (its samples can be no
// more than the bytes that carried them, plus 48 bytes of CorrEntry per
// entry, and an entry takes at least corrEntryFixed bytes on the wire)
// — so no count field can ask for memory the sender did not pay for in
// bytes; and every accepted payload re-encodes to identical bytes.
func FuzzDecodeCorrSet(f *testing.F) {
	reply := EncodeCorrSet(&CorrSet{Seq: 7, Entries: []CorrEntry{
		{SetID: 3, Omega: 0.91, Beta: 724, Anomalous: true, Class: 1, Archetype: 5, Scale: 0.01, Samples: []int16{5, -5, 100}},
		{SetID: -1, Omega: 0.85, Scale: 0.02},
		{SetID: 9, Omega: 0.5, Beta: 3, Scale: 1, Samples: make([]int16, 300)},
	}})
	f.Add(reply)
	f.Add(EncodeCorrSet(&CorrSet{Seq: 1}))
	f.Add(EncodeCorrSet(bigCorrSet()))
	// A reply as the cloud assembles it: continuations of one stored
	// record, so every entry carries that record's scale.
	f.Add(EncodeCorrSet(&CorrSet{Seq: 2, Entries: []CorrEntry{
		{SetID: 4, Omega: 0.97, Beta: 10, Scale: 0.0625, Samples: []int16{32000, -7, 0, 12}},
		{SetID: 5, Omega: 0.93, Beta: 510, Anomalous: true, Scale: 0.0625, Samples: []int16{-32000, 1}},
	}}))
	for _, cut := range []int{0, 7, 8, 20, 8 + corrEntryFixed, len(reply) - 1} {
		f.Add(reply[:cut])
	}
	// A sample count that promises 2³¹ samples, an entry count that
	// promises 2³² − 1 entries, a flag that is neither 0 nor 1, and a
	// byte past the end.
	lying := append([]byte(nil), reply...)
	lying[8+20+3] = 0x80
	f.Add(lying)
	many := append([]byte(nil), reply...)
	copy(many[4:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(many)
	flagged := append([]byte(nil), reply...)
	flagged[8+12] = 7
	f.Add(flagged)
	f.Add(append(append([]byte(nil), reply...), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCorrSet(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		if cap(c.Entries) > (len(data)-8)/corrEntryFixed {
			t.Fatalf("%d-byte payload produced %d entries", len(data), cap(c.Entries))
		}
		samples := 0
		for i := range c.Entries {
			samples += cap(c.Entries[i].Samples)
		}
		if 2*samples > len(data) {
			t.Fatalf("%d-byte payload produced %d samples", len(data), samples)
		}
		if again := EncodeCorrSet(c); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload does not re-encode to itself (%d bytes in, %d out)", len(data), len(again))
		}
	})
}
