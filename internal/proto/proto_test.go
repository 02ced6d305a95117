package proto

import (
	"bytes"
	"io"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"emap/internal/rng"
)

// writeFrame writes one frame with no request ID or tenant.
func writeFrame(w io.Writer, t MsgType, payload []byte) error {
	return NewFrameWriter(w).WriteFrame(t, 0, "", payload)
}

// readFrame reads one frame's type and payload.
func readFrame(r io.Reader) (MsgType, []byte, error) {
	f, err := ReadFrameAny(r)
	return f.Type, f.Payload, err
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello emap")
	if err := writeFrame(&buf, TypePing, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypePing || !bytes.Equal(got, payload) {
		t.Fatalf("frame mangled: type=%d payload=%q", typ, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, TypePong, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != TypePong || len(payload) != 0 {
		t.Fatalf("empty frame: %d %v %v", typ, payload, err)
	}
}

func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, TypeUpload, []byte("data!")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xFF
	if _, _, err := readFrame(bytes.NewReader(bad)); err != ErrBadMagic {
		t.Fatalf("bad magic error = %v", err)
	}
	// Bad version.
	bad = append([]byte{}, raw...)
	bad[2] = 99
	if _, _, err := readFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version should error")
	}
	// Flipped payload bit → CRC mismatch.
	bad = append([]byte{}, raw...)
	bad[13] ^= 0x01
	if _, _, err := readFrame(bytes.NewReader(bad)); err != ErrBadCRC {
		t.Fatalf("corrupt payload error = %v", err)
	}
	// Truncation.
	if _, _, err := readFrame(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatal("truncated frame should error")
	}
	if _, _, err := readFrame(bytes.NewReader(raw[:4])); err == nil {
		t.Fatal("truncated header should error")
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, TypeUpload, make([]byte, MaxPayload+1)); err != ErrTooLarge {
		t.Fatalf("oversize write error = %v", err)
	}
	// An adversarial header claiming a huge payload must be rejected.
	hdr := []byte{0xA7, 0xE3, Version3, byte(TypeUpload), 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := readFrame(bytes.NewReader(hdr)); err != ErrTooLarge {
		t.Fatalf("oversize read error = %v", err)
	}
}

func TestUploadRoundTrip(t *testing.T) {
	u := &Upload{Seq: 42, Scale: 0.05, Samples: []int16{0, 1, -1, 32767, -32768, 1234}}
	got, err := DecodeUpload(EncodeUpload(u))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != u.Seq || got.Scale != u.Scale || len(got.Samples) != len(u.Samples) {
		t.Fatalf("upload mangled: %+v", got)
	}
	for i := range u.Samples {
		if got.Samples[i] != u.Samples[i] {
			t.Fatalf("sample %d mangled", i)
		}
	}
}

func TestUploadDecodeErrors(t *testing.T) {
	if _, err := DecodeUpload([]byte{1, 2}); err == nil {
		t.Fatal("short upload should error")
	}
	// Claim more samples than present.
	u := &Upload{Seq: 1, Scale: 1, Samples: []int16{1, 2, 3}}
	raw := EncodeUpload(u)
	raw[8] = 200 // inflate sample count
	if _, err := DecodeUpload(raw); err == nil {
		t.Fatal("inflated sample count should error")
	}
}

func TestCorrSetRoundTrip(t *testing.T) {
	c := &CorrSet{
		Seq: 7,
		Entries: []CorrEntry{
			{SetID: 3, Omega: 0.91, Beta: 724, Anomalous: true, Class: 1, Archetype: 5, Scale: 0.01, Samples: []int16{5, -5, 100}},
			{SetID: -1, Omega: 0.85, Beta: 0, Anomalous: false, Class: 0, Archetype: 0, Scale: 0.02, Samples: nil},
		},
	}
	got, err := DecodeCorrSet(EncodeCorrSet(c))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || len(got.Entries) != 2 {
		t.Fatalf("corrset mangled: %+v", got)
	}
	e := got.Entries[0]
	if e.SetID != 3 || e.Beta != 724 || !e.Anomalous || e.Class != 1 || e.Archetype != 5 {
		t.Fatalf("entry mangled: %+v", e)
	}
	if math.Abs(float64(e.Omega)-0.91) > 1e-6 {
		t.Fatalf("omega mangled: %g", e.Omega)
	}
	if got.Entries[1].SetID != -1 {
		t.Fatalf("negative SetID mangled: %d", got.Entries[1].SetID)
	}
}

func TestCorrSetDecodeErrors(t *testing.T) {
	if _, err := DecodeCorrSet([]byte{1}); err == nil {
		t.Fatal("short corrset should error")
	}
	c := &CorrSet{Seq: 1, Entries: []CorrEntry{{SetID: 1, Samples: []int16{1, 2}}}}
	raw := EncodeCorrSet(c)
	if _, err := DecodeCorrSet(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated corrset should error")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e := &ErrorMsg{Code: 500, Text: "search failed: flat input"}
	got, err := DecodeError(EncodeError(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != 500 || got.Text != e.Text {
		t.Fatalf("error mangled: %+v", got)
	}
	if _, err := DecodeError([]byte{1}); err == nil {
		t.Fatal("short error should error")
	}
	bad := EncodeError(e)
	bad[2] = 0xFF // inflate text length
	if _, err := DecodeError(bad); err == nil {
		t.Fatal("inflated text length should error")
	}
}

// Property: arbitrary Upload messages survive frame + payload encoding.
func TestUploadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(512)
		u := &Upload{Seq: uint32(r.Uint64()), Scale: float32(r.Range(0.001, 1))}
		u.Samples = make([]int16, n)
		for i := range u.Samples {
			u.Samples[i] = int16(r.Uint64())
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, TypeUpload, EncodeUpload(u)); err != nil {
			return false
		}
		typ, payload, err := readFrame(&buf)
		if err != nil || typ != TypeUpload {
			return false
		}
		got, err := DecodeUpload(payload)
		if err != nil || got.Seq != u.Seq || len(got.Samples) != n {
			return false
		}
		for i := range got.Samples {
			if got.Samples[i] != u.Samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	r := rng.New(5)
	samples := make([]float64, 256)
	for i := range samples {
		samples[i] = r.Norm(0, 10)
	}
	counts, scale := Quantize(samples)
	back := Dequantize(counts, scale)
	for i := range samples {
		if math.Abs(back[i]-samples[i]) > float64(scale) {
			t.Fatalf("quantisation error at %d: %g", i, back[i]-samples[i])
		}
	}
}

// TestQuantizeGridMatchesWireScale pins the grid-mismatch fix: counts
// must be rounded against the float32-NARROWED scale (the step a
// decoder actually multiplies by), so the round-trip error is bounded
// by half a step per sample. Before the fix, counts were rounded on
// the float64 grid while Dequantize reconstructed on the float32 one,
// and samples near count boundaries could land a full step off.
func TestQuantizeGridMatchesWireScale(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		samples := make([]float64, 64)
		// A peak value whose /32000 step does NOT round-trip through
		// float32 exercises the narrowed grid; random scales find them.
		for i := range samples {
			samples[i] = r.Norm(0, 123.456)
		}
		counts, scale := Quantize(samples)
		step := float64(scale)
		back := Dequantize(counts, scale)
		for i := range samples {
			// Half a step, plus one ulp of slack for the final
			// count·scale multiplication.
			bound := step/2 + math.Abs(back[i])*1e-15
			if c := counts[i]; c == math.MaxInt16 || c == math.MinInt16 {
				bound = step // rail saturation may clip further
			}
			if err := math.Abs(back[i] - samples[i]); err > bound {
				t.Fatalf("trial %d sample %d: round-trip error %g exceeds half-step %g (scale %g)",
					trial, i, err, bound, step)
			}
		}
	}
}

// NarrowScale must return exactly the grid the wire's float32 scale
// reconstructs on, and QuantizeTo must round on it.
func TestNarrowScaleIsWireGrid(t *testing.T) {
	for _, peak := range []float64{1e-7, 0.3, 123.456, 9999.25} {
		s := NarrowScale(peak)
		if s != float64(float32(s)) {
			t.Fatalf("NarrowScale(%g) = %g is not float32-representable", peak, s)
		}
		if s <= 0 {
			t.Fatalf("NarrowScale(%g) = %g not positive", peak, s)
		}
	}
	if s := NarrowScale(0); s <= 0 {
		t.Fatal("degenerate peak must keep a positive step")
	}
}

func TestQuantizeDegenerate(t *testing.T) {
	counts, scale := Quantize(make([]float64, 8))
	if scale <= 0 {
		t.Fatal("flat input must keep a positive scale")
	}
	for _, c := range counts {
		if c != 0 {
			t.Fatal("flat input should quantise to zeros")
		}
	}
	if got := Dequantize(nil, 1); len(got) != 0 {
		t.Fatal("empty dequantize should be empty")
	}
}

// TestQuantizeIdempotentOnItsOwnGrid: re-quantizing what a quantized
// window dequantizes to gives the same counts and the same scale — the
// largest count of a finite window is always ±32 000, so the second pass
// finds the step it was made with. It is what lets a stream hand the
// search the counts it already has, where the search used to quantize
// the dequantized window again: the same integers either way. Random
// µV-scale windows, windows at their own rails (±peak only), constant
// and all-zero windows, tiny and huge magnitudes.
func TestQuantizeIdempotentOnItsOwnGrid(t *testing.T) {
	r := rng.New(83)
	check := func(label string, x []float64) {
		t.Helper()
		counts, scale := Quantize(x)
		again, scaleAgain := Quantize(Dequantize(counts, scale))
		if scaleAgain != scale || !slices.Equal(again, counts) {
			t.Fatalf("%s: counts or scale (%v → %v) moved on re-quantization", label, scale, scaleAgain)
		}
	}
	for trial := 0; trial < 300; trial++ {
		x := make([]float64, 256)
		sigma := math.Pow(10, r.Range(-9, 9))
		for i := range x {
			x[i] = r.Norm(0, sigma)
		}
		check("random", x)
		peak := math.Abs(x[0])
		for i := range x {
			x[i] = math.Copysign(peak, x[i]) // every sample at a rail of its own grid
		}
		check("rail", x)
		for i := range x {
			x[i] = peak
		}
		check("constant", x)
	}
	check("zero", make([]float64, 256))
}

// Quantisation must preserve correlation structure: the cloud search
// runs on dequantized uploads.
func TestQuantizePreservesShape(t *testing.T) {
	r := rng.New(9)
	samples := make([]float64, 256)
	for i := range samples {
		samples[i] = r.Norm(0, 7)
	}
	counts, scale := Quantize(samples)
	back := Dequantize(counts, scale)
	var dot, na, nb float64
	for i := range samples {
		dot += samples[i] * back[i]
		na += samples[i] * samples[i]
		nb += back[i] * back[i]
	}
	if corr := dot / math.Sqrt(na*nb); corr < 0.99999 {
		t.Fatalf("quantisation destroyed correlation: %g", corr)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream error = %v, want io.EOF", err)
	}
}

func BenchmarkEncodeCorrSet100(b *testing.B) {
	entries := make([]CorrEntry, 100)
	for i := range entries {
		entries[i] = CorrEntry{SetID: int32(i), Omega: 0.9, Samples: make([]int16, 2048)}
	}
	c := &CorrSet{Entries: entries}
	b.SetBytes(int64(CorrSetSize(100, 100*2048)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EncodeCorrSet(c)
	}
}

func BenchmarkDecodeCorrSet100(b *testing.B) {
	entries := make([]CorrEntry, 100)
	for i := range entries {
		entries[i] = CorrEntry{SetID: int32(i), Omega: 0.9, Samples: make([]int16, 2048)}
	}
	raw := EncodeCorrSet(&CorrSet{Entries: entries})
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = DecodeCorrSet(raw)
	}
}
