package proto

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestFrameV3RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("tenant-routed emap")
	if err := NewFrameWriter(&buf).WriteFrame(TypeUpload, 0xCAFEF00D, "ward-7", payload); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrameAny(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != Version3 || f.Type != TypeUpload || f.ID != 0xCAFEF00D ||
		f.Tenant != "ward-7" || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("v3 frame mangled: %+v", f)
	}
}

func TestFrameV3EmptyTenant(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteFrame(TypePing, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrameAny(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Tenant != "" || f.Version != Version3 || f.ID != 1 {
		t.Fatalf("empty-tenant v3 frame mangled: %+v", f)
	}
}

func TestFrameV3TenantTooLong(t *testing.T) {
	var buf bytes.Buffer
	long := strings.Repeat("x", MaxTenantLen+1)
	if err := NewFrameWriter(&buf).WriteFrame(TypeUpload, 1, long, nil); err != ErrTenantLong {
		t.Fatalf("oversize tenant error = %v", err)
	}
}

func TestFrameV3Corruption(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteFrame(TypeCorrSet, 3, "t1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Header: 2 magic + 1 ver + 1 type + 4 id + 1 tlen + 2 tenant + 4 len = 15.
	bad := append([]byte{}, raw...)
	bad[15] ^= 0x01 // first payload byte
	if _, err := ReadFrameAny(bytes.NewReader(bad)); err != ErrBadCRC {
		t.Fatalf("corrupt payload error = %v", err)
	}
	if _, err := ReadFrameAny(bytes.NewReader(raw[:9])); err == nil {
		t.Fatal("truncated tlen should error")
	}
	if _, err := ReadFrameAny(bytes.NewReader(raw[:10])); err == nil {
		t.Fatal("truncated tenant should error")
	}
	if _, err := ReadFrameAny(bytes.NewReader(raw[:13])); err == nil {
		t.Fatal("truncated length should error")
	}
	if _, err := ReadFrameAny(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated CRC should error")
	}
}

func TestWriteFrameTenantDispatch(t *testing.T) {
	// Version 3 carries the ID and the tenant; any other version is
	// refused before a byte is written.
	var buf bytes.Buffer
	if err := WriteFrameTenant(&buf, Version3, TypePong, 7, "icu", nil); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrameAny(&buf)
	if err != nil || f.Version != Version3 || f.ID != 7 || f.Tenant != "icu" {
		t.Fatalf("v3 dispatch: %+v, %v", f, err)
	}
	for _, v := range []uint8{1, 2, 9} {
		if err := WriteFrameTenant(&buf, v, TypePong, 7, "icu", nil); !errors.Is(err, ErrBadVersion) || buf.Len() != 0 {
			t.Fatalf("version %d: error %v, %d bytes written", v, err, buf.Len())
		}
	}
}

func TestIngestRoundTrip(t *testing.T) {
	in := &Ingest{
		Seq:       42,
		RecordID:  "patient-9/rec-3",
		Class:     2,
		Archetype: 11,
		Onset:     -1,
		Scale:     0.125,
		Samples:   []int16{-3, 0, 7, 32000, -32000},
	}
	got, err := DecodeIngest(EncodeIngest(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != in.Seq || got.RecordID != in.RecordID || got.Class != in.Class ||
		got.Archetype != in.Archetype || got.Onset != in.Onset || got.Scale != in.Scale {
		t.Fatalf("ingest mangled: %+v", got)
	}
	for i, v := range in.Samples {
		if got.Samples[i] != v {
			t.Fatalf("sample %d: %d != %d", i, got.Samples[i], v)
		}
	}
	if _, err := DecodeIngest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short ingest should error")
	}
	// A record-ID length pointing past the payload must not panic.
	bad := EncodeIngest(in)[:10]
	if _, err := DecodeIngest(bad); err == nil {
		t.Fatal("truncated record ID should error")
	}
}

func TestIngestAckRoundTrip(t *testing.T) {
	a := &IngestAck{Seq: 9, Sets: 23, TotalSets: 1023, TotalRecords: 45}
	got, err := DecodeIngestAck(EncodeIngestAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Fatalf("ack mangled: %+v", got)
	}
	if _, err := DecodeIngestAck([]byte{1}); err == nil {
		t.Fatal("short ack should error")
	}
}
