package proto

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
	"testing/quick"

	"emap/internal/rng"
)

// legacyFrame lays a frame out as a version-1 or version-2 writer did:
// magic, version, type, the request ID on v2 only, length, payload and
// CRC. The reader refuses both layouts.
func legacyFrame(version uint8, typ MsgType, id uint32, payload []byte) []byte {
	b := appendU16(nil, Magic)
	b = append(b, version, byte(typ))
	if version == 2 {
		b = appendU32(b, id)
	}
	b = appendU32(b, uint32(len(payload)))
	b = append(b, payload...)
	return appendU32(b, crc32.ChecksumIEEE(payload))
}

// TestFrameV2RoundTrip: what a v2 frame carried — a request ID and no
// tenant — round-trips through the one layout, while the v2 bytes of
// the same frame are refused.
func TestFrameV2RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("pipelined emap")
	if err := NewFrameWriter(&buf).WriteFrame(TypeUpload, 0xDEADBEEF, "", payload); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrameAny(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != Version3 || f.Type != TypeUpload || f.ID != 0xDEADBEEF || f.Tenant != "" || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame mangled: %+v", f)
	}
	if _, err := ReadFrameAny(bytes.NewReader(legacyFrame(2, TypeUpload, 0xDEADBEEF, payload))); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v2 frame: error %v, want ErrBadVersion", err)
	}
}

// TestReadFrameRejectsV2: a v1 or v2 header is refused as a bad
// version rather than misparsed (a v2 ID read as a tenant length, a v1
// length read as an ID).
func TestReadFrameRejectsV2(t *testing.T) {
	for _, v := range []uint8{1, 2} {
		if _, err := ReadFrameAny(bytes.NewReader(legacyFrame(v, TypeUpload, 7, []byte("data")))); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("v%d frame: error %v, want ErrBadVersion", v, err)
		}
	}
}

func TestFrameV2Corruption(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteFrame(TypeCorrSet, 3, "", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	bad := append([]byte{}, raw...)
	bad[0] ^= 0xFF
	if _, err := ReadFrameAny(bytes.NewReader(bad)); err != ErrBadMagic {
		t.Fatalf("bad magic error = %v", err)
	}
	for _, v := range []uint8{2, 77} {
		bad = append([]byte{}, raw...)
		bad[2] = v
		if _, err := ReadFrameAny(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d error = %v", v, err)
		}
	}
	bad = append([]byte{}, raw...)
	bad[13] ^= 0x01 // flip a payload bit (13-byte header with no tenant)
	if _, err := ReadFrameAny(bytes.NewReader(bad)); err != ErrBadCRC {
		t.Fatalf("corrupt payload error = %v", err)
	}
	if _, err := ReadFrameAny(bytes.NewReader(raw[:10])); err == nil {
		t.Fatal("truncated header should error")
	}
	if _, err := ReadFrameAny(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatal("truncated frame should error")
	}
}

func TestFrameV2TooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteFrame(TypeUpload, 1, "", make([]byte, MaxPayload+1)); err != ErrTooLarge {
		t.Fatalf("oversize write error = %v", err)
	}
	hdr := []byte{0xA7, 0xE3, Version3, byte(TypeUpload),
		1, 0, 0, 0, // id
		0,                      // tenant length
		0xFF, 0xFF, 0xFF, 0xFF} // length
	if _, err := ReadFrameAny(bytes.NewReader(hdr)); err != ErrTooLarge {
		t.Fatalf("oversize read error = %v", err)
	}
	// The same claim in a v2 header is refused for its version first.
	hdr = []byte{0xA7, 0xE3, 2, byte(TypeUpload), 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrameAny(bytes.NewReader(hdr)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("oversize v2 read error = %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := &Hello{Version: Version3, Features: 0xA5A5}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Fatalf("hello mangled: %+v", got)
	}
	if _, err := DecodeHello([]byte{2}); err == nil {
		t.Fatal("short hello should error")
	}
}

// Property: arbitrary IDs and payloads survive the framing, and the
// same frame with a v2 version byte is refused.
func TestFrameV2Property(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		id := uint32(r.Uint64())
		payload := make([]byte, r.Intn(256))
		for i := range payload {
			payload[i] = byte(r.Uint64())
		}
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).WriteFrame(TypeCorrSet, id, "", payload); err != nil {
			return false
		}
		raw := append([]byte(nil), buf.Bytes()...)
		got, err := ReadFrameAny(&buf)
		if err != nil || got.ID != id || got.Version != Version3 || !bytes.Equal(got.Payload, payload) {
			return false
		}
		raw[2] = 2
		_, err = ReadFrameAny(bytes.NewReader(raw))
		return errors.Is(err, ErrBadVersion)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
