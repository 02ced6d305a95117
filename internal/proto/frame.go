package proto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// maxHeader is the longest frame header: a version-3 header naming a
// MaxTenantLen tenant.
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

// WriteFrame writes one frame in the given negotiated version, dropping
// whatever fields that version's layout cannot carry: v1 loses the ID
// and the tenant (replies match by order, requests land on the default
// tenant), v2 loses the tenant only. The payload is only read, and not
// referenced once WriteFrame returns.
func (fw *FrameWriter) WriteFrame(version uint8, t MsgType, id uint32, tenant string, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	hdr := appendU16(fw.head[:0], Magic)
	hdr = append(hdr, version, byte(t))
	switch version {
	case Version1:
	case Version2:
		hdr = appendU32(hdr, id)
	case Version3:
		if len(tenant) > MaxTenantLen {
			return ErrTenantLong
		}
		hdr = appendU32(hdr, id)
		hdr = append(hdr, byte(len(tenant)))
		hdr = append(hdr, tenant...)
	default:
		return fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
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

// WriteFrame writes one version-1 frame with the given type and
// payload.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	return WriteFrameTenant(w, Version1, t, 0, "", payload)
}

// WriteFrameV2 writes one version-2 frame carrying a request ID.
func WriteFrameV2(w io.Writer, t MsgType, id uint32, payload []byte) error {
	return WriteFrameTenant(w, Version2, t, id, "", payload)
}

// WriteFrameV3 writes one version-3 frame carrying a request ID and a
// tenant/store identifier (empty = default tenant).
func WriteFrameV3(w io.Writer, t MsgType, id uint32, tenant string, payload []byte) error {
	return WriteFrameTenant(w, Version3, t, id, tenant, payload)
}

// WriteFrameVersion writes a frame in the given negotiated version;
// the ID is dropped on the v1 wire (v1 replies match by order). It is
// the tenant-less form of WriteFrameTenant.
func WriteFrameVersion(w io.Writer, version uint8, t MsgType, id uint32, payload []byte) error {
	return WriteFrameTenant(w, version, t, id, "", payload)
}

// WriteFrameTenant writes one frame to w through a FrameWriter of its
// own — the one-shot form for handshakes and callers that write a
// frame now and then; a connection's writer keeps a FrameWriter.
func WriteFrameTenant(w io.Writer, version uint8, t MsgType, id uint32, tenant string, payload []byte) error {
	return NewFrameWriter(w).WriteFrame(version, t, id, tenant, payload)
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

// ReadFrame reads one frame of any version, validating magic, version,
// size and CRC; the returned Frame self-describes which layout arrived.
// The payload belongs to the caller. A TypeCorrSet payload — the one
// large message, read once per upload by an edge or a relaying router —
// is drawn from the reply buffer pool, so whoever finishes with it
// should pass it to PutBuffer (dropping it instead is safe); every
// other payload is a fresh slice of the frame's size, the caller's for
// good.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	hdr := fr.head[:8]
	if _, err := io.ReadFull(fr.r, hdr); err != nil {
		return Frame{}, err
	}
	if binary.LittleEndian.Uint16(hdr) != Magic {
		return Frame{}, ErrBadMagic
	}
	f := Frame{Version: hdr[2], Type: MsgType(hdr[3])}
	var n uint32
	switch f.Version {
	case Version1:
		n = binary.LittleEndian.Uint32(hdr[4:])
	case Version2:
		f.ID = binary.LittleEndian.Uint32(hdr[4:])
		ext := fr.head[8:12]
		if _, err := io.ReadFull(fr.r, ext); err != nil {
			return Frame{}, fmt.Errorf("proto: truncated v2 header: %w", err)
		}
		n = binary.LittleEndian.Uint32(ext)
	case Version3:
		f.ID = binary.LittleEndian.Uint32(hdr[4:])
		if _, err := io.ReadFull(fr.r, fr.head[8:9]); err != nil {
			return Frame{}, fmt.Errorf("proto: truncated v3 header: %w", err)
		}
		// The tenant and the length field behind it arrive together.
		tl := int(fr.head[8])
		rest := fr.head[9 : 9+tl+4]
		if _, err := io.ReadFull(fr.r, rest); err != nil {
			return Frame{}, fmt.Errorf("proto: truncated v3 header: %w", err)
		}
		if tenant := rest[:tl]; string(tenant) != fr.tenant {
			fr.tenant = string(tenant)
		}
		f.Tenant = fr.tenant
		n = binary.LittleEndian.Uint32(rest[tl:])
	default:
		return Frame{}, fmt.Errorf("%w: %d", ErrBadVersion, f.Version)
	}
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

// ReadFrameAny reads one frame of any version from r through a
// FrameReader of its own — the one-shot form, consuming exactly the
// frame's bytes; a connection's reader keeps a FrameReader.
func ReadFrameAny(r io.Reader) (Frame, error) {
	return NewFrameReader(r).ReadFrame()
}

// ReadFrame reads one version-1 frame, validating magic, version, size
// and CRC.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	f, err := ReadFrameAny(r)
	if err != nil {
		return 0, nil, err
	}
	if f.Version != Version1 {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, f.Version)
	}
	return f.Type, f.Payload, nil
}
