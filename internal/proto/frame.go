package proto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// maxHeader is the longest frame header: one naming a MaxTenantLen
// tenant.
const maxHeader = 13 + MaxTenantLen

// FrameWriter writes frames to one stream. A connection keeps one for
// its lifetime: the header and CRC trailer are built in the writer's
// own scratch and leave with the payload in a single vectored write —
// one system call per frame on a TCP connection — so a frame costs no
// allocation and the payload is never copied. Not safe for concurrent
// use; a connection has one writer.
type FrameWriter struct {
	w    io.Writer
	head [maxHeader + 4]byte // header, then the CRC trailer
	vec  [3][]byte
	bufs net.Buffers // always a slice of vec; a field so WriteTo's receiver does not escape per frame
}

// NewFrameWriter returns a frame writer on w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteFrame writes one frame carrying a request ID and a tenant (empty
// = the server's default tenant). The payload is only read, and not
// referenced once WriteFrame returns.
func (fw *FrameWriter) WriteFrame(t MsgType, id uint32, tenant string, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	if len(tenant) > MaxTenantLen {
		return ErrTenantLong
	}
	hdr := appendU16(fw.head[:0], Magic)
	hdr = append(hdr, Version3, byte(t))
	hdr = appendU32(hdr, id)
	hdr = append(hdr, byte(len(tenant)))
	hdr = append(hdr, tenant...)
	hdr = appendU32(hdr, uint32(len(payload)))
	if len(payload) == 0 {
		// Header and trailer are adjacent in head: one plain write (a
		// zero-length Write would block forever on a net.Pipe).
		_, err := fw.w.Write(appendU32(hdr, crc32.ChecksumIEEE(nil)))
		return err
	}
	fw.vec = [3][]byte{hdr, payload, appendU32(hdr[len(hdr):], crc32.ChecksumIEEE(payload))}
	fw.bufs = fw.vec[:]
	_, err := fw.bufs.WriteTo(fw.w)
	fw.vec = [3][]byte{} // an idle connection must not pin its last payload
	return err
}

// WriteFrameTenant writes one frame to w through a FrameWriter of its
// own — the one-shot form for callers that write a frame now and then;
// a connection's writer keeps a FrameWriter. Version 3 is the only
// version it writes: any other is ErrBadVersion.
func WriteFrameTenant(w io.Writer, version uint8, t MsgType, id uint32, tenant string, payload []byte) error {
	if version != Version3 {
		return fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	return NewFrameWriter(w).WriteFrame(t, id, tenant, payload)
}

// FrameReader reads frames from one stream, parsing headers in its own
// scratch and reusing the tenant string while the peer keeps naming the
// same tenant. It reads exactly one frame's bytes per call and buffers
// nothing itself: a connection's reader wraps the connection in one
// bufio.Reader first, so the header fields cost no system calls of
// their own and a payload larger than that buffer is still read
// straight into place.
type FrameReader struct {
	r      io.Reader
	head   [maxHeader]byte
	tenant string
}

// NewFrameReader returns a frame reader on r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ReadFrame reads one frame, validating magic, version, size and CRC; a
// version byte other than Version3 is ErrBadVersion.
// The payload belongs to the caller. A TypeCorrSet payload — the one
// large message, read once per upload by an edge or a relaying router —
// is drawn from the reply buffer pool, so whoever finishes with it
// should pass it to PutBuffer (dropping it instead is safe); every
// other payload is a fresh slice of the frame's size, the caller's for
// good.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	// The fixed fields and the tenant length arrive first; the tenant
	// and the length field behind it arrive together.
	hdr := fr.head[:9]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return Frame{}, err
	}
	if binary.LittleEndian.Uint16(hdr) != Magic {
		return Frame{}, ErrBadMagic
	}
	if hdr[2] != Version3 {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	f := Frame{Version: Version3, Type: MsgType(hdr[3]), ID: binary.LittleEndian.Uint32(hdr[4:])}
	tl := int(hdr[8])
	rest := fr.head[9 : 9+tl+4]
	if _, err := io.ReadFull(fr.r, rest); err != nil {
		return Frame{}, fmt.Errorf("proto: truncated header: %w", err)
	}
	if tenant := rest[:tl]; string(tenant) != fr.tenant {
		fr.tenant = string(tenant)
	}
	f.Tenant = fr.tenant
	n := binary.LittleEndian.Uint32(rest[tl:])
	if n > MaxPayload {
		return Frame{}, ErrTooLarge
	}
	// Payload and CRC trailer are read as one block.
	var buf []byte
	if f.Type == TypeCorrSet {
		buf = GetBuffer(int(n) + 4)
	} else {
		buf = make([]byte, int(n)+4)
	}
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		PutBuffer(buf)
		return Frame{}, fmt.Errorf("proto: truncated payload: %w", err)
	}
	f.Payload = buf[:n]
	if binary.LittleEndian.Uint32(buf[n:]) != crc32.ChecksumIEEE(f.Payload) {
		PutBuffer(buf)
		return Frame{}, ErrBadCRC
	}
	return f, nil
}

// ReadFrameAny reads one frame from r through a FrameReader of its own
// — the one-shot form, consuming exactly the frame's bytes; a
// connection's reader keeps a FrameReader.
func ReadFrameAny(r io.Reader) (Frame, error) {
	return NewFrameReader(r).ReadFrame()
}

// Greet runs the connecting side's Hello round trip on a fresh
// connection: it announces Version3 and expects a Hello back. Nothing is
// negotiated — there is one layout — but a peer that drops the
// connection, answers with anything else or is not EMAP at all fails
// here, at connect, not on the first request. The caller bounds the
// exchange with a deadline on the connection.
func Greet(fw *FrameWriter, fr *FrameReader) error {
	if err := fw.WriteFrame(TypeHello, 0, "", EncodeHello(&Hello{Version: Version3})); err != nil {
		return fmt.Errorf("proto: hello: %w", err)
	}
	f, err := fr.ReadFrame()
	if err != nil {
		return fmt.Errorf("proto: hello reply: %w", err)
	}
	if f.Type != TypeHello {
		return fmt.Errorf("proto: peer answered hello with type %d", f.Type)
	}
	return nil
}
