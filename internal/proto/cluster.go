package proto

import (
	"fmt"
	"io"
)

// Cluster control messages (see internal/cluster). The
// router tier and the cloud nodes coordinate with four exchanges:
// MOVED redirects a request for a tenant the receiving node does not
// own, Ring pushes the membership table, Replicate ships one tenant's
// snapshot to its replica node, and Handoff migrates a tenant to a new
// owner on membership change.
const (
	// TypeMoved is the reply to a request for a tenant the node does
	// not own: the payload names the owning node's address and the
	// client (router or ring-aware edge) retries there.
	TypeMoved MsgType = 9
	// TypeRing pushes the cluster membership table (router→node, or
	// node→client on request); TypeRingAck echoes the epoch adopted.
	TypeRing    MsgType = 10
	TypeRingAck MsgType = 11
	// TypeReplicate ships one tenant's serialized store snapshot to a
	// peer node (owner→replica on ingest, old owner→new owner on
	// migration); TypeReplicateAck confirms the load.
	TypeReplicate    MsgType = 12
	TypeReplicateAck MsgType = 13
	// TypeHandoff tells a node to migrate one tenant to the target
	// node (drain → snapshot → transfer → forward window);
	// TypeHandoffAck reports the transfer.
	TypeHandoff    MsgType = 14
	TypeHandoffAck MsgType = 15
)

// Moved is the redirect payload: the tenant and the address of the
// node that owns it now. A router retries the request there; a plain
// edge client re-points its dial address.
type Moved struct {
	Tenant string
	Addr   string
}

// RingNode is one member of the cluster ring.
type RingNode struct {
	// ID is the node's stable identity (its ring placement hashes
	// from it, so it must survive restarts).
	ID string
	// Addr is where the node's transport listens.
	Addr string
}

// Ring is the cluster membership table. Epoch increases on every
// membership change; a receiver ignores pushes with an epoch at or
// below the one it holds.
type Ring struct {
	Epoch uint64
	Nodes []RingNode
}

// RingAck confirms a Ring push, echoing the epoch the node now holds.
type RingAck struct {
	Epoch uint64
}

// Replicate ships one tenant's serialized store snapshot (the
// mdb.Save wire format) to a peer node, which loads it as its replica
// copy — or, on migration, as the live store.
type Replicate struct {
	Tenant string
	// Promote distinguishes the two uses: false parks the snapshot
	// as a passive replica; true loads it as the live, owned store
	// (migration transfer).
	Promote  bool
	Snapshot []byte
}

// ReplicateAck confirms a Replicate: the tenant and the snapshot byte
// count the node stored.
type ReplicateAck struct {
	Tenant string
	Bytes  uint32
}

// Handoff orders the receiving node to migrate one tenant to the node
// at TargetAddr: stop accepting new work for it, snapshot, Replicate
// with Promote to the target, then answer requests for the tenant
// with Moved for the forwarding window.
type Handoff struct {
	Tenant     string
	TargetAddr string
}

// HandoffAck reports a completed migration: the tenant and the
// snapshot byte count transferred.
type HandoffAck struct {
	Tenant string
	Bytes  uint32
}

// appendStr writes a u32-length-prefixed string.
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendU64(b []byte, v uint64) []byte {
	b = appendU32(b, uint32(v))
	return appendU32(b, uint32(v>>32))
}

// str reads a u32-length-prefixed string, bounding the length by what
// remains so a corrupt prefix cannot drive a huge allocation.
func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n < 0 || !r.need(n) {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) u64() uint64 {
	lo := r.u32()
	hi := r.u32()
	return uint64(hi)<<32 | uint64(lo)
}

// EncodeMoved serialises a Moved payload.
func EncodeMoved(m *Moved) []byte {
	b := make([]byte, 0, 8+len(m.Tenant)+len(m.Addr))
	b = appendStr(b, m.Tenant)
	return appendStr(b, m.Addr)
}

// DecodeMoved parses a Moved payload.
func DecodeMoved(payload []byte) (*Moved, error) {
	r := &reader{b: payload}
	m := &Moved{Tenant: r.str(), Addr: r.str()}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding Moved: %w", r.err)
	}
	return m, nil
}

// EncodeRing serialises a Ring payload.
func EncodeRing(g *Ring) []byte {
	size := 12
	for _, n := range g.Nodes {
		size += 8 + len(n.ID) + len(n.Addr)
	}
	b := make([]byte, 0, size)
	b = appendU64(b, g.Epoch)
	b = appendU32(b, uint32(len(g.Nodes)))
	for _, n := range g.Nodes {
		b = appendStr(b, n.ID)
		b = appendStr(b, n.Addr)
	}
	return b
}

// DecodeRing parses a Ring payload.
func DecodeRing(payload []byte) (*Ring, error) {
	r := &reader{b: payload}
	g := &Ring{Epoch: r.u64()}
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > 1<<16) {
		return nil, fmt.Errorf("proto: implausible ring size %d", n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		node := RingNode{ID: r.str(), Addr: r.str()}
		if r.err == nil {
			g.Nodes = append(g.Nodes, node)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding Ring: %w", r.err)
	}
	return g, nil
}

// EncodeRingAck serialises a RingAck payload.
func EncodeRingAck(a *RingAck) []byte {
	return appendU64(make([]byte, 0, 8), a.Epoch)
}

// DecodeRingAck parses a RingAck payload.
func DecodeRingAck(payload []byte) (*RingAck, error) {
	r := &reader{b: payload}
	a := &RingAck{Epoch: r.u64()}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding RingAck: %w", r.err)
	}
	return a, nil
}

// EncodeReplicate serialises a Replicate payload.
func EncodeReplicate(p *Replicate) []byte {
	b := make([]byte, 0, 9+len(p.Tenant)+len(p.Snapshot))
	b = appendStr(b, p.Tenant)
	flag := byte(0)
	if p.Promote {
		flag = 1
	}
	b = append(b, flag)
	b = appendU32(b, uint32(len(p.Snapshot)))
	return append(b, p.Snapshot...)
}

// DecodeReplicate parses a Replicate payload. The snapshot bytes are
// aliased, not copied — the caller owns the payload buffer.
func DecodeReplicate(payload []byte) (*Replicate, error) {
	r := &reader{b: payload}
	p := &Replicate{Tenant: r.str(), Promote: r.u8() != 0}
	n := int(r.u32())
	if r.err == nil && (n < 0 || !r.need(n)) {
		return nil, fmt.Errorf("proto: decoding Replicate: %w", io.ErrUnexpectedEOF)
	}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding Replicate: %w", r.err)
	}
	p.Snapshot = r.b[r.off : r.off+n]
	return p, nil
}

// EncodeReplicateAck serialises a ReplicateAck payload.
func EncodeReplicateAck(a *ReplicateAck) []byte {
	b := make([]byte, 0, 8+len(a.Tenant))
	b = appendStr(b, a.Tenant)
	return appendU32(b, a.Bytes)
}

// DecodeReplicateAck parses a ReplicateAck payload.
func DecodeReplicateAck(payload []byte) (*ReplicateAck, error) {
	r := &reader{b: payload}
	a := &ReplicateAck{Tenant: r.str(), Bytes: r.u32()}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding ReplicateAck: %w", r.err)
	}
	return a, nil
}

// EncodeHandoff serialises a Handoff payload.
func EncodeHandoff(h *Handoff) []byte {
	b := make([]byte, 0, 8+len(h.Tenant)+len(h.TargetAddr))
	b = appendStr(b, h.Tenant)
	return appendStr(b, h.TargetAddr)
}

// DecodeHandoff parses a Handoff payload.
func DecodeHandoff(payload []byte) (*Handoff, error) {
	r := &reader{b: payload}
	h := &Handoff{Tenant: r.str(), TargetAddr: r.str()}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding Handoff: %w", r.err)
	}
	return h, nil
}

// EncodeHandoffAck serialises a HandoffAck payload.
func EncodeHandoffAck(a *HandoffAck) []byte {
	b := make([]byte, 0, 8+len(a.Tenant))
	b = appendStr(b, a.Tenant)
	return appendU32(b, a.Bytes)
}

// DecodeHandoffAck parses a HandoffAck payload.
func DecodeHandoffAck(payload []byte) (*HandoffAck, error) {
	r := &reader{b: payload}
	a := &HandoffAck{Tenant: r.str(), Bytes: r.u32()}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decoding HandoffAck: %w", r.err)
	}
	return a, nil
}
