package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"emap/internal/backoff"
	"emap/internal/proto"
)

// errPoolClosed is returned by exchanges on a closed pool.
var errPoolClosed = errors.New("cluster: pool closed")

// poolDialTimeout bounds one dial + handshake to a peer node.
const poolDialTimeout = 5 * time.Second

// poolConn is one checked connection to a peer node, with the frame
// writer and the buffered frame reader it keeps for its lifetime. Pool
// connections run strictly serial request/reply exchanges — one
// request owns the connection until its reply arrives — so no request
// ID remapping is ever needed when proxying on behalf of many edges:
// concurrency comes from checking out many connections, not from
// pipelining one.
type poolConn struct {
	conn net.Conn
	fw   *proto.FrameWriter
	fr   *proto.FrameReader
	seq  uint32
}

// pool maintains reusable connections to one peer node's transport.
// Checkout prefers an idle connection and dials when none is free;
// connections return to the pool after a clean exchange and are
// discarded on any error. Dial failures retry with backoff, bounded
// by the caller's context.
type pool struct {
	addr  string
	retry backoff.Policy

	mu     sync.Mutex
	idle   []*poolConn
	closed bool
}

func newPool(addr string, retry backoff.Policy) *pool {
	return &pool{addr: addr, retry: retry}
}

// get checks out an idle connection or dials a fresh one, checked with
// the same Hello round trip an edge opens with.
func (p *pool) get(ctx context.Context) (*poolConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPoolClosed
	}
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()

	d := net.Dialer{Timeout: poolDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing %s: %w", p.addr, err)
	}
	deadline := time.Now().Add(poolDialTimeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	pc := &poolConn{conn: conn, fw: proto.NewFrameWriter(conn), fr: proto.NewFrameReader(bufio.NewReader(conn))}
	conn.SetDeadline(deadline)
	err = proto.Greet(pc.fw, pc.fr)
	conn.SetDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: peer %s: %w", p.addr, err)
	}
	return pc, nil
}

// put returns a healthy connection to the idle set.
func (p *pool) put(pc *poolConn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.conn.Close()
		return
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
}

// roundTrip runs one serial exchange against the peer: checkout,
// write the request frame, read its reply (Pongs from crossed
// keepalives are skipped), return the connection. Connection-level
// failures discard the connection and retry on a fresh one, paced by
// the pool's backoff policy and bounded by attempts and ctx; an
// application-level reply (CorrSet, Error, Moved, …) is returned as
// is — retrying those is the caller's policy, not the pool's.
func (p *pool) roundTrip(ctx context.Context, t proto.MsgType, tenant string, payload []byte, attempts int) (proto.MsgType, []byte, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := p.retry.Sleep(ctx, attempt-1); err != nil {
				return 0, nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		pc, err := p.get(ctx)
		if err != nil {
			if errors.Is(err, errPoolClosed) || ctx.Err() != nil {
				return 0, nil, err
			}
			lastErr = err
			continue
		}
		typ, reply, err := p.exchange(ctx, pc, t, tenant, payload)
		if err != nil {
			pc.conn.Close()
			if ctx.Err() != nil {
				return 0, nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		p.put(pc)
		return typ, reply, nil
	}
	return 0, nil, lastErr
}

// exchange writes one request and reads its matching reply on a
// checked-out connection.
func (p *pool) exchange(ctx context.Context, pc *poolConn, t proto.MsgType, tenant string, payload []byte) (proto.MsgType, []byte, error) {
	pc.seq++
	id := pc.seq
	if d, ok := ctx.Deadline(); ok {
		pc.conn.SetDeadline(d)
		defer pc.conn.SetDeadline(time.Time{})
	}
	if err := pc.fw.WriteFrame(t, id, tenant, payload); err != nil {
		return 0, nil, fmt.Errorf("cluster: write to %s: %w", p.addr, err)
	}
	for {
		f, err := pc.fr.ReadFrame()
		if err != nil {
			return 0, nil, fmt.Errorf("cluster: read from %s: %w", p.addr, err)
		}
		if f.ID != id {
			// The connection is serial, so a mismatched ID can only
			// be a stale reply from an exchange a past deadline
			// abandoned; skip it.
			continue
		}
		return f.Type, f.Payload, nil
	}
}

// close closes every idle connection and refuses further checkouts.
func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, pc := range idle {
		pc.conn.Close()
	}
}
