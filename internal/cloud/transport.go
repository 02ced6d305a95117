package cloud

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/proto"
)

// FrameHandler is the serving side of a Transport: it answers one
// decoded request frame with one reply (type + payload). The transport
// mirrors the request's ID and tenant onto the reply frame, so handlers
// deal purely in message semantics. Handlers must be safe for
// concurrent use — pipelined connections serve frames in parallel.
//
// The returned payload is handed off: the caller owns it outright (the
// transport releases it to the reply buffer pool once written), so a
// handler never returns a slice it keeps or shares. The request
// frame's payload, in turn, is the handler's to keep.
//
// The tenant-engine layer (Engine) is the canonical handler; the
// cluster tier adds others (a node wrapping an Engine with ownership
// checks, a router proxying to owner nodes) without re-implementing the
// connection machinery.
type FrameHandler interface {
	ServeFrame(f proto.Frame) (proto.MsgType, []byte)
}

// TransportConfig parameterises the connection layer alone; the
// tenant-engine knobs live in Config.
type TransportConfig struct {
	// MaxInFlight bounds how many requests one connection may have
	// queued or serving (default 4×GOMAXPROCS); past it the reader
	// stops consuming frames and TCP backpressure does the rest.
	MaxInFlight int
	// IdleTimeout, when positive, closes a connection that delivers no
	// frame for this long — the slow-loris guard: a stalled half-open
	// peer is reaped instead of holding its goroutines and buffers
	// forever. Disabled by default; deployments set it well above the
	// edge upload cadence.
	IdleTimeout time.Duration
	// Logger receives per-connection diagnostics; nil disables
	// logging.
	Logger *log.Logger
	// Metrics, when non-nil, is where the transport counts
	// connections, write errors and request flight; the owner shares
	// one Metrics between its engine and its transport.
	Metrics *Metrics
}

func (c TransportConfig) withDefaults() TransportConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Metrics == nil {
		c.Metrics = &Metrics{}
	}
	return c
}

// outFrame is one queued response awaiting the writer goroutine.
type outFrame struct {
	typ     proto.MsgType
	id      uint32
	tenant  string
	payload []byte
}

// Transport is the connection layer of the cloud tier, split out from
// the tenant engine so a process can host engines without owning the
// listener (and vice versa — the cluster router owns a listener with no
// engine behind it). Every frame carries a request ID, so each
// connection runs a reader goroutine handing requests to up to
// MaxInFlight worker goroutines of its own and a single writer goroutine
// draining a response queue; replies leave in whatever order they
// finish.
// Hello and Ping are answered by the transport itself; every other
// frame goes to the FrameHandler.
type Transport struct {
	h   FrameHandler
	cfg TransportConfig

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	draining bool
	conns    map[net.Conn]struct{}
	handlers sync.WaitGroup
}

// NewTransport returns a transport serving frames through h.
func NewTransport(h FrameHandler, cfg TransportConfig) *Transport {
	return &Transport{
		h:     h,
		cfg:   cfg.withDefaults(),
		conns: make(map[net.Conn]struct{}),
	}
}

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logger != nil {
		t.cfg.Logger.Printf(format, args...)
	}
}

// Serve accepts connections until the listener is closed.
func (t *Transport) Serve(l net.Listener) error {
	t.mu.Lock()
	t.listener = l
	t.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go t.HandleConn(conn)
	}
}

// Close stops the accept loop and terminates active connections
// immediately, abandoning any in-flight replies.
func (t *Transport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for conn := range t.conns {
		conn.Close()
	}
	if t.listener != nil {
		return t.listener.Close()
	}
	return nil
}

// Shutdown drains the transport gracefully: it stops accepting, stops
// reading new requests, lets every in-flight request complete and its
// reply flush, then closes the connections. If ctx expires first the
// remaining connections are closed hard and ctx.Err() is returned.
func (t *Transport) Shutdown(ctx context.Context) error {
	t.mu.Lock()
	t.closed = true
	t.draining = true
	l := t.listener
	// Wake blocked readers: their next ReadFrame fails with a
	// deadline error and the per-connection drain path runs.
	past := time.Unix(1, 0)
	for conn := range t.conns {
		conn.SetReadDeadline(past)
	}
	t.mu.Unlock()
	if l != nil {
		l.Close()
	}
	done := make(chan struct{})
	go func() {
		t.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-close; handlers exit on their own once their
		// in-flight requests return.
		t.Close()
		return ctx.Err()
	}
}

// isDrainErr reports whether a read error is the deadline Shutdown
// planted to stop this connection's intake.
func (t *Transport) isDrainErr(err error) bool {
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.draining
}

// isIdleErr reports whether a read error is the idle deadline expiring
// on a non-draining transport — a stalled peer, not a shutdown.
func (t *Transport) isIdleErr(err error) bool {
	if t.cfg.IdleTimeout <= 0 {
		return false
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.draining
}

// HandleConn serves one peer connection until it fails, the peer
// disconnects, or the transport drains. The calling goroutine is the
// frame reader; requests are handed to the connection's workers — at
// most MaxInFlight of them, each started the first time a frame finds
// every existing one busy, alive until the reader ends — and all replies
// funnel through one writer goroutine, so pipelined peers can keep many
// requests in flight on one connection.
// What the reuse costs: a connection keeps as many parked goroutines as
// its peak concurrency, for as long as it stays open.
func (t *Transport) HandleConn(conn net.Conn) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	t.conns[conn] = struct{}{}
	t.handlers.Add(1)
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		conn.Close()
		t.handlers.Done()
	}()
	m := t.cfg.Metrics
	m.Connections.Add(1)

	out := make(chan outFrame, 16)
	writerDone := make(chan struct{})
	var writeFailed atomic.Bool
	go func() {
		defer close(writerDone)
		fw := proto.NewFrameWriter(conn)
		for f := range out {
			if writeFailed.Load() {
				continue // drain abandoned replies
			}
			err := fw.WriteFrame(f.typ, f.id, f.tenant, f.payload)
			// The handler handed the payload off and the write was its
			// last use: this writer is the reply buffer's final owner.
			proto.PutBuffer(f.payload)
			if err != nil {
				// A dead write means a dead peer: tear the
				// connection down so the reader unblocks and
				// the handler exits, instead of looping on a
				// broken conn.
				m.Errors.Add(1)
				t.logf("cloud: write: %v", err)
				writeFailed.Store(true)
				conn.Close()
			}
		}
	}()

	// The connection's workers park on work between requests: a request
	// costs a channel handoff, not a goroutine and the growth of its
	// stack.
	var jobs sync.WaitGroup
	work := make(chan proto.Frame)
	workers := 0
	// Request payloads are fresh slices, never pool buffers (only a
	// correlation set is read into one): a handler may keep its frame's
	// payload (a parked replica snapshot aliases it).
	fr := proto.NewFrameReader(bufio.NewReader(conn))
	for {
		if t.cfg.IdleTimeout > 0 {
			// Arm the idle deadline per read — but never overwrite the
			// past deadline Shutdown plants to stop this conn's intake.
			t.mu.Lock()
			draining := t.draining
			t.mu.Unlock()
			if !draining {
				conn.SetReadDeadline(time.Now().Add(t.cfg.IdleTimeout))
			}
		}
		frame, err := fr.ReadFrame()
		if err != nil {
			if t.isIdleErr(err) {
				m.IdleReaped.Add(1)
				t.logf("cloud: reaping idle connection: no frame in %v", t.cfg.IdleTimeout)
			} else if !errors.Is(err, io.EOF) && !t.isDrainErr(err) {
				m.Errors.Add(1)
				t.logf("cloud: read: %v", err)
			}
			break
		}
		switch frame.Type {
		case proto.TypeHello:
			// The connect check: there is nothing to negotiate, but a
			// malformed Hello is refused like any malformed request.
			if _, herr := proto.DecodeHello(frame.Payload); herr != nil {
				m.Errors.Add(1)
				out <- errorFrame(frame, 400, herr.Error())
				continue
			}
			out <- outFrame{typ: proto.TypeHello, id: frame.ID, tenant: frame.Tenant,
				payload: proto.EncodeHello(&proto.Hello{Version: proto.Version3})}
		case proto.TypePing:
			out <- outFrame{typ: proto.TypePong, id: frame.ID, tenant: frame.Tenant}
		default:
			// Uploads and ingests are the tracked request load; the
			// flight gauges and the request counter describe them.
			// Control frames (cluster replication, ring pushes) and
			// unknown types still route through the handler — and
			// still occupy a connection worker, so one connection
			// cannot flood the process with unbounded concurrent
			// control work — but they are not "requests served".
			if tracked(frame.Type) {
				m.Requests.Add(1)
				m.enterFlight()
			}
			// Pipelined: independent requests run in parallel,
			// replies matched by request ID. An idle worker takes the
			// frame; with none idle one more is started, up to the
			// per-connection cap, past which the reader blocks here —
			// a client that pipelines too far ahead meets TCP
			// backpressure.
			select {
			case work <- frame:
			default:
				if workers < t.cfg.MaxInFlight {
					workers++
					jobs.Add(1)
					go func(f proto.Frame) {
						defer jobs.Done()
						t.serveFrame(f, out)
						for f := range work {
							t.serveFrame(f, out)
						}
					}(frame)
				} else {
					work <- frame
				}
			}
		}
	}
	// Let in-flight requests finish and their replies flush before
	// the deferred close — this is the graceful-drain half of
	// Shutdown, and it also runs on ordinary disconnects. Closing work
	// is what ends the workers, each after the request it holds.
	close(work)
	jobs.Wait()
	close(out)
	<-writerDone
}

// tracked reports whether a frame of this type is request load — an
// upload or an ingest — which the flight gauges and the request counter
// describe; the reader enters it into flight, serveFrame takes it out.
func tracked(t proto.MsgType) bool { return t == proto.TypeUpload || t == proto.TypeIngest }

// serveFrame runs one frame through the handler and queues its reply,
// mirroring the request's ID and tenant. A handler panic is the
// handler's bug, but it must cost exactly one request: the panic is
// recovered, that request answers with a 5xx-class error, and the
// connection — and every other request on the worker pool — keeps
// serving. The request leaves flight before its reply is queued, so a
// client holding the reply never reads it as still in flight.
func (t *Transport) serveFrame(f proto.Frame, out chan<- outFrame) {
	typ, payload := t.callHandler(f)
	if tracked(f.Type) {
		t.cfg.Metrics.leaveFlight()
	}
	out <- outFrame{typ: typ, id: f.ID, tenant: f.Tenant, payload: payload}
}

// callHandler invokes the frame handler with panic isolation.
func (t *Transport) callHandler(f proto.Frame) (typ proto.MsgType, payload []byte) {
	defer func() {
		if r := recover(); r != nil {
			t.cfg.Metrics.Panics.Add(1)
			t.cfg.Metrics.Errors.Add(1)
			t.logf("cloud: panic serving type-%d frame: %v\n%s", f.Type, r, debug.Stack())
			typ = proto.TypeError
			payload = errorPayload(500, fmt.Sprintf("internal error: %v", r))
		}
	}()
	return t.h.ServeFrame(f)
}

// errorFrame builds an ErrorMsg reply mirroring the offending frame's
// ID and tenant.
func errorFrame(frame proto.Frame, code uint16, text string) outFrame {
	return outFrame{typ: proto.TypeError, id: frame.ID, tenant: frame.Tenant,
		payload: errorPayload(code, text)}
}

// errorPayload builds an ErrorMsg payload; handlers return it with
// proto.TypeError.
func errorPayload(code uint16, text string) []byte {
	return proto.EncodeError(&proto.ErrorMsg{Code: code, Text: text})
}
