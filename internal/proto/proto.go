// Package proto defines the binary wire protocol between the EMAP edge
// device and the cloud service: framed, versioned, CRC-protected
// messages carrying one-second EEG uploads (edge→cloud) and signal
// correlation sets (cloud→edge).
//
// Samples travel as 16-bit counts with a per-message µV scale factor,
// matching the paper's 16-bit acquisition resolution and the Fig. 4
// payload arithmetic (2 bytes per sample).
//
// Frame layout (little-endian):
//
//	magic   uint16  0xE3A7
//	version uint8   3
//	type    uint8   message type
//	id      uint32  request identifier (echoed by the reply)
//	tlen    uint8   tenant ID byte count (0 = default tenant)
//	tenant  [tlen]byte  tenant/store identifier (UTF-8)
//	length  uint32  payload byte count
//	payload [length]byte
//	crc     uint32  IEEE CRC-32 of payload
//
// The request ID lets many requests be in flight on one connection,
// with replies matched by ID in whatever order they arrive; the tenant
// routes each request to one tenant's mega-database (multi-tenant
// serving), and TypeIngest pushes a preprocessed recording into that
// tenant's store. There is one layout: a frame whose version byte is
// not 3 is refused with ErrBadVersion. A client opens a connection with
// one Hello round trip (Greet), which negotiates nothing but fails fast
// against a peer that drops the connection or is not EMAP.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Protocol constants.
const (
	Magic uint16 = 0xE3A7

	// Version3 is the version byte of the frame layout, the only one
	// this build reads or writes.
	Version3 uint8 = 3

	// MaxPayload bounds a frame's payload; larger frames are
	// rejected as corrupt before allocation.
	MaxPayload = 16 << 20

	// MaxTenantLen bounds the tenant ID a frame carries (the wire
	// field is one length byte).
	MaxTenantLen = 255
)

// MsgType identifies a message.
type MsgType uint8

// The protocol's message types.
const (
	TypeUpload  MsgType = 1 // edge→cloud: one-second filtered window
	TypeCorrSet MsgType = 2 // cloud→edge: signal correlation set T
	TypeError   MsgType = 3 // either direction: failure report
	TypePing    MsgType = 4 // liveness probe
	TypePong    MsgType = 5 // liveness reply
	TypeHello   MsgType = 6 // connect check (both directions)
	// TypeIngest pushes a preprocessed recording into the tenant's
	// mega-database (edge→cloud); TypeIngestAck acknowledges it
	// with the number of signal-sets created.
	TypeIngest    MsgType = 7
	TypeIngestAck MsgType = 8
)

// Protocol errors.
var (
	ErrBadMagic   = errors.New("proto: bad frame magic")
	ErrBadVersion = errors.New("proto: unsupported protocol version")
	ErrBadCRC     = errors.New("proto: payload CRC mismatch")
	ErrTooLarge   = errors.New("proto: frame exceeds MaxPayload")
	ErrTenantLong = errors.New("proto: tenant ID exceeds MaxTenantLen")
)

// Upload is the edge→cloud message: the bandpass-filtered one-second
// input window I_N (paper §V-A).
type Upload struct {
	// Seq numbers the time-step N.
	Seq uint32
	// Scale is the µV value of one count.
	Scale float32
	// Samples is the window as 16-bit counts.
	Samples []int16
	// Priority classifies the upload for admission control: a cloud
	// under saturation sheds PriRoutine uploads first and keeps
	// serving PriAnomaly ones (a suspected-seizure window preempts
	// routine refreshes). It travels as an optional trailing byte:
	// PriRoutine uploads encode exactly as before this field existed,
	// and decoders treat a missing byte as PriRoutine, so the field is
	// compatible in both directions.
	Priority uint8
}

// Upload priorities.
const (
	// PriRoutine is the default steady-state tracking refresh.
	PriRoutine uint8 = 0
	// PriAnomaly marks an upload from a device whose predictor
	// currently flags an anomaly (or that is recovering from an
	// outage); admission control never sheds it.
	PriAnomaly uint8 = 1
)

// CorrEntry is one element of the signal correlation set: the paper's
// [S, ω, β] plus the continuation samples the edge needs for tracking.
type CorrEntry struct {
	// SetID is the signal-set's ID in the cloud MDB.
	SetID int32
	// Omega is the retrieval correlation.
	Omega float32
	// Beta is the matched offset within the signal-set.
	Beta int32
	// Anomalous is the slice label A(S_P).
	Anomalous bool
	// Class and Archetype carry evaluation metadata.
	Class     uint8
	Archetype uint16
	// Scale is the µV value of one count of Samples.
	Scale float32
	// Samples is the recording content from the matched offset
	// forward (the tracking horizon).
	Samples []int16
}

// CorrSet is the cloud→edge response to an Upload.
type CorrSet struct {
	// Seq echoes the Upload's sequence number.
	Seq uint32
	// Entries is the top-K correlation set, descending ω.
	Entries []CorrEntry
}

// ErrorMsg reports a failure to the peer.
type ErrorMsg struct {
	Code uint16
	Text string
}

// Hello is the connect check (see Greet): each side names the frame
// version it speaks, which is always Version3. Features is a reserved
// bit-set for future capability flags; peers must ignore bits they do
// not know.
type Hello struct {
	Version  uint8
	Features uint32
}

// Ingest is the edge→cloud message pushing one preprocessed recording
// (already resampled to the base rate and bandpass filtered, i.e. the
// output of MDB preprocessing) into the tenant's mega-database, where
// it is sliced into signal-sets and becomes searchable — the live
// "recordings are continuously inserted" half of the paper's MongoDB
// MDB. Samples travel quantized like uploads.
type Ingest struct {
	// Seq numbers the request (echoed by the ack).
	Seq uint32
	// RecordID names the recording; it must be unique within the
	// tenant's store.
	RecordID string
	// Class and Archetype carry the clinical label metadata.
	Class     uint8
	Archetype uint16
	// Onset is the ictal onset sample at the base rate, or -1 when
	// the recording has no onset annotation (the server then labels
	// per its class rule).
	Onset int32
	// Scale is the µV value of one count.
	Scale float32
	// Samples is the preprocessed waveform as 16-bit counts.
	Samples []int16
}

// IngestAck is the cloud→edge acknowledgement of an Ingest.
type IngestAck struct {
	// Seq echoes the Ingest's sequence number.
	Seq uint32
	// Sets is the number of signal-sets the recording was sliced
	// into.
	Sets uint32
	// TotalSets is the tenant store's signal-set count after the
	// insert.
	TotalSets uint32
	// TotalRecords is the tenant store's recording count after the
	// insert.
	TotalRecords uint32
}

// Frame is one decoded wire frame. Version is always Version3 on a
// frame FrameReader returns; an empty Tenant routes to the server's
// default tenant.
type Frame struct {
	Version uint8
	Type    MsgType
	ID      uint32
	Tenant  string
	Payload []byte
}

// appendUint helpers keep the encoders readable.
func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendF32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// appendSamples appends a sample block: a 32-bit count, then the counts
// moved in bulk (see putSamples).
func appendSamples(b []byte, s []int16) []byte {
	b = appendU32(b, uint32(len(s)))
	n := len(b)
	b = slices.Grow(b, 2*len(s))[:n+2*len(s)]
	putSamples(b[n:], s)
	return b
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) f32() float32 { return math.Float32frombits(r.u32()) }

func (r *reader) samples() []int16 {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > MaxPayload/2 || !r.need(2*n) {
		if r.err == nil {
			r.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	out := make([]int16, n)
	getSamples(out, r.b[r.off:])
	r.off += 2 * n
	return out
}

// EncodeUpload serialises an Upload payload. The priority byte is
// appended only when it is not PriRoutine, so routine uploads are
// byte-identical to pre-priority encoders.
func EncodeUpload(u *Upload) []byte {
	return AppendUpload(make([]byte, 0, 13+2*len(u.Samples)), u)
}

// AppendUpload appends u's Upload payload to b, for callers that keep
// an encode buffer.
func AppendUpload(b []byte, u *Upload) []byte {
	b = appendU32(b, u.Seq)
	b = appendF32(b, u.Scale)
	b = appendSamples(b, u.Samples)
	if u.Priority != PriRoutine {
		b = append(b, u.Priority)
	}
	return b
}

// DecodeUpload parses an Upload payload. A payload ending right after
// the samples (a pre-priority encoder) decodes as PriRoutine.
func DecodeUpload(payload []byte) (*Upload, error) {
	r := &reader{b: payload}
	u := &Upload{Seq: r.u32(), Scale: r.f32()}
	u.Samples = r.samples()
	if r.err == nil && r.off < len(r.b) {
		u.Priority = r.u8()
	}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding Upload: %w", r.err)
	}
	return u, nil
}

// A CorrSet payload is Seq and the entry count (corrSetFixed bytes),
// then per entry its fields in wire form (a CorrHeader), a 4-byte
// sample count and the samples.
const (
	corrSetFixed   = 8
	corrHeaderLen  = 20
	corrEntryFixed = corrHeaderLen + 4
)

// CorrHeader is a CorrEntry's fields — everything but its samples — in
// wire form. Whoever assembles a correlation set out of samples that lie
// elsewhere (the cloud's selection over its store) keeps these bytes per
// match and encodes each entry as header + samples with AppendCorrEntry,
// the primitive EncodeCorrSet is written in, so the layout has one
// definition.
type CorrHeader [corrHeaderLen]byte

// MakeCorrHeader encodes e's fields; e.Samples is not read.
func MakeCorrHeader(e *CorrEntry) (h CorrHeader) {
	binary.LittleEndian.PutUint32(h[0:], uint32(e.SetID))
	binary.LittleEndian.PutUint32(h[4:], math.Float32bits(e.Omega))
	binary.LittleEndian.PutUint32(h[8:], uint32(e.Beta))
	if e.Anomalous {
		h[12] = 1
	}
	h[13] = e.Class
	binary.LittleEndian.PutUint16(h[14:], e.Archetype)
	binary.LittleEndian.PutUint32(h[16:], math.Float32bits(e.Scale))
	return h
}

// Entry decodes the fields into a CorrEntry with no samples.
func (h *CorrHeader) Entry() CorrEntry {
	return CorrEntry{
		SetID:     int32(binary.LittleEndian.Uint32(h[0:])),
		Omega:     math.Float32frombits(binary.LittleEndian.Uint32(h[4:])),
		Beta:      int32(binary.LittleEndian.Uint32(h[8:])),
		Anomalous: h[12] != 0,
		Class:     h[13],
		Archetype: binary.LittleEndian.Uint16(h[14:]),
		Scale:     math.Float32frombits(binary.LittleEndian.Uint32(h[16:])),
	}
}

// CorrSetSize returns the exact encoded size of a CorrSet payload of the
// given number of entries carrying the given number of samples between
// them — what an encoder appending into a buffer must have room for.
func CorrSetSize(entries, samples int) int {
	return corrSetFixed + corrEntryFixed*entries + 2*samples
}

// AppendCorrSetHeader appends the start of a CorrSet payload: its Seq
// and the number of entries that follow, each by AppendCorrEntry.
func AppendCorrSetHeader(b []byte, seq uint32, entries int) []byte {
	return appendU32(appendU32(b, seq), uint32(entries))
}

// AppendCorrEntry appends one entry of a CorrSet payload: its fields,
// then its samples as a counted block moved in bulk (see putSamples).
func AppendCorrEntry(b []byte, h *CorrHeader, samples []int16) []byte {
	return appendSamples(append(b, h[:]...), samples)
}

// EncodeCorrSet serialises a CorrSet payload into a buffer of exactly
// its size.
func EncodeCorrSet(c *CorrSet) []byte {
	samples := 0
	for i := range c.Entries {
		samples += len(c.Entries[i].Samples)
	}
	b := make([]byte, 0, CorrSetSize(len(c.Entries), samples))
	b = AppendCorrSetHeader(b, c.Seq, len(c.Entries))
	for i := range c.Entries {
		h := MakeCorrHeader(&c.Entries[i])
		b = AppendCorrEntry(b, &h, c.Entries[i].Samples)
	}
	return b
}

// DecodeCorrSet parses a CorrSet payload. The shape is validated in
// full before anything is sized from it — the entry count against the
// bytes an entry needs at least, every sample count against the bytes
// actually left — and only then are the entries and one backing array
// for all their samples allocated: three allocations, bounded by
// len(payload) + 48 bytes per entry, whatever the counts claim. Only
// the canonical encoding is accepted: an anomaly flag of 0 or 1 and no
// bytes past the last entry, so an accepted payload re-encodes to
// itself.
func DecodeCorrSet(payload []byte) (*CorrSet, error) {
	if len(payload) < corrSetFixed {
		return nil, fmt.Errorf("proto: decoding CorrSet: %w", io.ErrUnexpectedEOF)
	}
	n := int(binary.LittleEndian.Uint32(payload[4:]))
	if n < 0 || n > (len(payload)-corrSetFixed)/corrEntryFixed {
		return nil, fmt.Errorf("proto: implausible entry count %d in a %d-byte CorrSet", n, len(payload))
	}
	off, total := corrSetFixed, 0
	for i := 0; i < n; i++ {
		if len(payload)-off < corrEntryFixed {
			return nil, fmt.Errorf("proto: decoding CorrSet: %w", io.ErrUnexpectedEOF)
		}
		if payload[off+12] > 1 {
			return nil, fmt.Errorf("proto: decoding CorrSet: anomaly flag %d", payload[off+12])
		}
		ns := int(binary.LittleEndian.Uint32(payload[off+corrHeaderLen:]))
		off += corrEntryFixed
		if ns < 0 || ns > (len(payload)-off)/2 {
			return nil, fmt.Errorf("proto: decoding CorrSet: %w", io.ErrUnexpectedEOF)
		}
		off += 2 * ns
		total += ns
	}
	if off != len(payload) {
		return nil, fmt.Errorf("proto: decoding CorrSet: %d bytes past the last entry", len(payload)-off)
	}
	c := &CorrSet{Seq: binary.LittleEndian.Uint32(payload)}
	if n == 0 {
		return c, nil
	}
	c.Entries = make([]CorrEntry, n)
	samples := make([]int16, total)
	off = corrSetFixed
	for i := range c.Entries {
		p := payload[off : off+corrEntryFixed]
		ns := int(binary.LittleEndian.Uint32(p[corrHeaderLen:]))
		off += corrEntryFixed
		e := &c.Entries[i]
		*e = (*CorrHeader)(p).Entry()
		// Capacity is clipped so an append to one entry's samples can
		// never run into its neighbour's.
		e.Samples = samples[:ns:ns]
		samples = samples[ns:]
		getSamples(e.Samples, payload[off:])
		off += 2 * ns
	}
	return c, nil
}

// EncodeError serialises an ErrorMsg payload.
func EncodeError(e *ErrorMsg) []byte {
	b := make([]byte, 0, 6+len(e.Text))
	b = appendU16(b, e.Code)
	b = appendU32(b, uint32(len(e.Text)))
	return append(b, e.Text...)
}

// DecodeError parses an ErrorMsg payload.
func DecodeError(payload []byte) (*ErrorMsg, error) {
	r := &reader{b: payload}
	e := &ErrorMsg{Code: r.u16()}
	n := int(r.u32())
	if r.err == nil && (n < 0 || !r.need(n)) {
		return nil, io.ErrUnexpectedEOF
	}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding Error: %w", r.err)
	}
	e.Text = string(r.b[r.off : r.off+n])
	return e, nil
}

// EncodeHello serialises a Hello payload.
func EncodeHello(h *Hello) []byte {
	b := make([]byte, 0, 5)
	b = append(b, h.Version)
	return appendU32(b, h.Features)
}

// DecodeHello parses a Hello payload.
func DecodeHello(payload []byte) (*Hello, error) {
	r := &reader{b: payload}
	h := &Hello{Version: r.u8(), Features: r.u32()}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding Hello: %w", r.err)
	}
	return h, nil
}

// EncodeIngest serialises an Ingest payload.
func EncodeIngest(g *Ingest) []byte {
	return AppendIngest(make([]byte, 0, 23+len(g.RecordID)+2*len(g.Samples)), g)
}

// AppendIngest appends g's Ingest payload to b, for callers that keep
// an encode buffer.
func AppendIngest(b []byte, g *Ingest) []byte {
	b = appendU32(b, g.Seq)
	b = appendU32(b, uint32(len(g.RecordID)))
	b = append(b, g.RecordID...)
	b = append(b, g.Class)
	b = appendU16(b, g.Archetype)
	b = appendU32(b, uint32(g.Onset))
	b = appendF32(b, g.Scale)
	return appendSamples(b, g.Samples)
}

// DecodeIngest parses an Ingest payload.
func DecodeIngest(payload []byte) (*Ingest, error) {
	r := &reader{b: payload}
	g := &Ingest{Seq: r.u32()}
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > MaxPayload || !r.need(n)) {
		return nil, fmt.Errorf("proto: decoding Ingest: %w", io.ErrUnexpectedEOF)
	}
	if r.err == nil {
		g.RecordID = string(r.b[r.off : r.off+n])
		r.off += n
	}
	g.Class = r.u8()
	g.Archetype = r.u16()
	g.Onset = int32(r.u32())
	g.Scale = r.f32()
	g.Samples = r.samples()
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding Ingest: %w", r.err)
	}
	return g, nil
}

// EncodeIngestAck serialises an IngestAck payload.
func EncodeIngestAck(a *IngestAck) []byte {
	b := make([]byte, 0, 16)
	b = appendU32(b, a.Seq)
	b = appendU32(b, a.Sets)
	b = appendU32(b, a.TotalSets)
	return appendU32(b, a.TotalRecords)
}

// DecodeIngestAck parses an IngestAck payload.
func DecodeIngestAck(payload []byte) (*IngestAck, error) {
	r := &reader{b: payload}
	a := &IngestAck{Seq: r.u32(), Sets: r.u32(), TotalSets: r.u32(), TotalRecords: r.u32()}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding IngestAck: %w", r.err)
	}
	return a, nil
}

// NarrowScale returns the quantization step for samples peaking at the
// given absolute value, pre-narrowed through the float32 wire grid: the
// wire carries the scale as a float32, so counts must be rounded
// against float64(float32(step)) — the step a decoder will actually
// multiply by — or the encoder and decoder reconstruct on two slightly
// different grids. Every quantizer in the system (wire uploads, the
// columnar MDB store) shares this step choice so their grids agree.
func NarrowScale(peak float64) float64 {
	scale := peak / 32000
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		scale = 1.0 / 32000
	}
	return float64(float32(scale))
}

// QuantizeTo rounds samples onto the int16 grid with the given step
// (normally NarrowScale of the peak), writing into dst (len(dst) must
// be at least len(samples)) and saturating at the rails.
func QuantizeTo(dst []int16, samples []float64, scale float64) {
	for i, v := range samples {
		q := math.Round(v / scale)
		if q > math.MaxInt16 {
			q = math.MaxInt16
		} else if q < math.MinInt16 {
			q = math.MinInt16
		}
		dst[i] = int16(q)
	}
}

// Quantize converts µV samples to 16-bit counts, returning the counts
// and the scale used (chosen so the extreme value maps near the rail).
// The counts are rounded against the float32-narrowed scale that is
// returned — the grid Dequantize reconstructs on — so a round trip's
// error is bounded by scale/2 per sample.
func Quantize(samples []float64) ([]int16, float32) {
	var peak float64
	for _, v := range samples {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	scale := NarrowScale(peak)
	out := make([]int16, len(samples))
	QuantizeTo(out, samples, scale)
	return out, float32(scale)
}

// Dequantize converts 16-bit counts back to µV.
func Dequantize(counts []int16, scale float32) []float64 {
	out := make([]float64, len(counts))
	s := float64(scale)
	for i, v := range counts {
		out[i] = float64(v) * s
	}
	return out
}
