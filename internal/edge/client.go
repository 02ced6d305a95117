// Package edge implements the edge tier of the EMAP framework: the
// protocol client that talks to the cloud service, and the Device that
// runs the full acquisition → upload → download → track → predict loop
// on streaming EEG, exactly as a wearable sensor node would.
package edge

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/backoff"
	"emap/internal/proto"
)

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("edge: client closed")

// handshakeTimeout bounds the Hello exchange on a fresh connection.
const handshakeTimeout = 10 * time.Second

// maxEncodeScratch bounds the request encode buffer a client keeps
// between calls: uploads and ordinary ingest chunks fit, a whole
// multi-megabyte recording does not stay resident.
const maxEncodeScratch = 64 << 10

// result is one completed exchange, delivered to the waiting caller.
type result struct {
	typ     proto.MsgType
	payload []byte
	err     error
}

// waiter is a registered in-flight request. The channel is buffered so
// the reader never blocks on a caller that gave up (ctx expired).
type waiter struct {
	ch chan result
}

// ClientOptions tunes a Client beyond its connection.
type ClientOptions struct {
	// Tenant is the cloud-side tenant/store ID every request is
	// routed to; it rides in each frame. Empty selects the server's
	// default tenant.
	Tenant string
	// DialTimeout bounds each (re)connection attempt of a dialled
	// client.
	DialTimeout time.Duration
	// RedialAttempts bounds how many connection attempts one call may
	// spend when the previous connection has died (default 3; negative
	// disables redialling entirely). Attempts after the first are
	// paced by Redial.
	RedialAttempts int
	// Redial paces reconnection attempts (zero value: the backoff
	// package defaults, 100 ms doubling to 10 s with jitter).
	Redial backoff.Policy
	// Keepalive, when positive, starts a health prober on a dialled
	// client: whenever the connection has been idle for the interval,
	// the prober round-trips a Ping, and a dead connection is redialled
	// (with Redial pacing) instead of being discovered by the next
	// search. Metrics counts the probes.
	Keepalive time.Duration
	// Dialer, when set, replaces the TCP dialer: every (re)connection
	// comes from this function instead of net.Dial. The fleet
	// harness's in-process netsim mode uses it to mint piped
	// connections straight into a server's HandleConn — thousands of
	// simulated devices with no sockets — while keeping the client's
	// real reconnect/backoff machinery in the loop.
	Dialer func(ctx context.Context) (net.Conn, error)
}

// ClientMetrics exposes the client's connection-state counters (all
// fields atomic): how often it dialled, failed, reconnected, lost a
// live connection, and what its keepalive prober observed.
type ClientMetrics struct {
	// Dials counts connection attempts; DialFailures the ones that
	// failed (including failed handshakes).
	Dials        atomic.Int64
	DialFailures atomic.Int64
	// Reconnects counts connections re-established after a failure.
	Reconnects atomic.Int64
	// ConnLost counts live connections retired by a read or write
	// error.
	ConnLost atomic.Int64
	// Keepalives counts keepalive probes sent; KeepaliveFailures the
	// ones that failed (each failure retires the probed connection).
	Keepalives        atomic.Int64
	KeepaliveFailures atomic.Int64
	// Redirects counts MOVED replies followed to a new owner node
	// (cluster deployments re-home tenants when membership changes).
	Redirects atomic.Int64
}

// ClientMetricsSnapshot is a plain-value copy of a ClientMetrics,
// taken with atomic loads — the race-safe way to read all counters at
// once.
type ClientMetricsSnapshot struct {
	Dials             int64
	DialFailures      int64
	Reconnects        int64
	ConnLost          int64
	Keepalives        int64
	KeepaliveFailures int64
	Redirects         int64
}

// Snapshot returns a race-safe copy of every counter.
func (m *ClientMetrics) Snapshot() ClientMetricsSnapshot {
	return ClientMetricsSnapshot{
		Dials:             m.Dials.Load(),
		DialFailures:      m.DialFailures.Load(),
		Reconnects:        m.Reconnects.Load(),
		ConnLost:          m.ConnLost.Load(),
		Keepalives:        m.Keepalives.Load(),
		KeepaliveFailures: m.KeepaliveFailures.Load(),
		Redirects:         m.Redirects.Load(),
	}
}

// CloudError is a structured error reply from the cloud (TypeError on
// the wire). Code identifies the refusal class — see the cloud tier's
// admission codes (429 rate-limited, 529 shed) and HTTP-flavoured
// failure codes (400/404/500/503).
type CloudError struct {
	Code uint16
	Text string
}

func (e *CloudError) Error() string {
	return fmt.Sprintf("edge: cloud error %d: %s", e.Code, e.Text)
}

// IsCloudCode reports whether err is (or wraps) a CloudError with the
// given code — how callers distinguish an admission refusal they
// should back off from, from a hard failure.
func IsCloudCode(err error, code uint16) bool {
	var ce *CloudError
	return errors.As(err, &ce) && ce.Code == code
}

// Client is a pipelined, context-aware protocol client. Multiple
// goroutines may call Search concurrently: every request carries an ID
// and replies are matched by it as they arrive, in any order. A client
// built with Dial re-establishes the connection after a failure on the
// next call. A client carries at most one tenant ID; devices for different
// patients use separate clients (connections are cheap, stores are
// not shared).
type Client struct {
	addr           string // empty: reconnect unavailable (wrapped conn)
	dialer         func(ctx context.Context) (net.Conn, error)
	dialTimeout    time.Duration
	redialAttempts int
	redial         backoff.Policy
	keepalive      time.Duration

	done     chan struct{} // closed by Close; stops the keepalive prober
	lastUsed atomic.Int64  // UnixNano of the last completed exchange

	wmu    sync.Mutex // serialises frame writes
	wbuf   []byte     // request encode scratch; used under wmu only
	dialMu sync.Mutex // serialises reconnection attempts

	mu      sync.Mutex // guards everything below
	tenant  string
	conn    net.Conn
	fw      *proto.FrameWriter // conn's frame writer; used under wmu only
	seq     uint32
	pending map[uint32]*waiter // keyed by request ID
	connErr error              // sticky until reconnect
	closed  bool

	// Metrics exposes connection-state counters (safe to read
	// concurrently).
	Metrics ClientMetrics
}

func newClient(opts ClientOptions) *Client {
	attempts := opts.RedialAttempts
	if attempts == 0 {
		attempts = 3
	} else if attempts < 0 {
		attempts = 0 // never redial: surface the connection error as-is
	}
	c := &Client{
		tenant:         opts.Tenant,
		dialer:         opts.Dialer,
		dialTimeout:    opts.DialTimeout,
		redialAttempts: attempts,
		redial:         opts.Redial,
		keepalive:      opts.Keepalive,
		done:           make(chan struct{}),
		pending:        make(map[uint32]*waiter),
	}
	c.lastUsed.Store(time.Now().UnixNano())
	return c
}

// NewClient wraps an established connection and checks the peer with
// a Hello exchange; a peer that answers it with anything but a Hello is
// refused.
func NewClient(conn net.Conn) (*Client, error) {
	return NewClientOpts(conn, ClientOptions{})
}

// NewClientOpts wraps an established connection with explicit options.
func NewClientOpts(conn net.Conn, opts ClientOptions) (*Client, error) {
	c := newClient(opts)
	if err := c.install(context.Background(), conn); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Dial connects to a cloud service address.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOpts(addr, ClientOptions{DialTimeout: timeout})
}

// DialTenant connects to a cloud service address with requests routed
// to the given tenant's store.
func DialTenant(addr, tenant string, timeout time.Duration) (*Client, error) {
	return DialOpts(addr, ClientOptions{Tenant: tenant, DialTimeout: timeout})
}

// DialOpts connects to a cloud service address with explicit options.
// With opts.Dialer set the address may be empty: every connection is
// minted by the dialer and the address is purely informational.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	c := newClient(opts)
	c.addr = addr
	conn, err := c.dial(context.Background())
	if err != nil {
		return nil, err
	}
	if err := c.install(context.Background(), conn); err != nil {
		c.Metrics.DialFailures.Add(1)
		conn.Close()
		return nil, err
	}
	if c.keepalive > 0 {
		go c.keepaliveLoop()
	}
	return c, nil
}

// keepaliveLoop probes the connection whenever it has been idle for a
// full keepalive interval. A failed probe retires the connection
// through the usual read/write failure path, and the next probe (or
// call) redials with backoff — so a device sitting between cloud
// refreshes discovers a dead link and repairs it before the refresh
// deadline is on the line.
func (c *Client) keepaliveLoop() {
	ticker := time.NewTicker(c.keepalive)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		if time.Since(time.Unix(0, c.lastUsed.Load())) < c.keepalive {
			continue // the connection is carrying traffic; no probe needed
		}
		timeout := c.keepalive
		if timeout > 5*time.Second {
			timeout = 5 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := c.Ping(ctx)
		cancel()
		c.Metrics.Keepalives.Add(1)
		if err != nil {
			c.Metrics.KeepaliveFailures.Add(1)
		}
	}
}

func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	c.Metrics.Dials.Add(1)
	if c.dialer != nil {
		conn, err := c.dialer(ctx)
		if err != nil {
			c.Metrics.DialFailures.Add(1)
			return nil, fmt.Errorf("edge: dialing cloud: %w", err)
		}
		return conn, nil
	}
	c.mu.Lock()
	addr := c.addr
	c.mu.Unlock()
	d := net.Dialer{Timeout: c.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		c.Metrics.DialFailures.Add(1)
		return nil, fmt.Errorf("edge: dialing cloud: %w", err)
	}
	return conn, nil
}

// install checks the peer with a Hello exchange on conn, bounded by the
// caller's deadline when it is tighter than the default, and starts the
// connection's reader. Callers must not hold c.mu.
func (c *Client) install(ctx context.Context, conn net.Conn) error {
	deadline := time.Now().Add(handshakeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	fw := proto.NewFrameWriter(conn)
	fr := proto.NewFrameReader(bufio.NewReader(conn))
	conn.SetDeadline(deadline)
	err := proto.Greet(fw, fr)
	conn.SetDeadline(time.Time{})
	if err != nil {
		return fmt.Errorf("edge: %w", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	c.conn = conn
	c.fw = fw
	c.connErr = nil
	c.mu.Unlock()
	go c.readLoop(conn, fr)
	return nil
}

// Tenant returns the tenant ID requests are routed to ("" = the
// server's default tenant).
func (c *Client) Tenant() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenant
}

// SetTenant changes the tenant ID carried by subsequent requests.
// In-flight requests keep the tenant they were sent with.
func (c *Client) SetTenant(tenant string) {
	c.mu.Lock()
	c.tenant = tenant
	c.mu.Unlock()
}

// Redirect re-points a dialled client at a new service address: the
// live connection (if any) is retired — concurrent in-flight requests
// on it fail and may be retried by their callers — and the next
// exchange dials the new address. This is how an edge follows a
// cluster's MOVED redirect when the tenant's owning node changes; a
// client wrapping a caller-supplied connection has no dial address and
// cannot redirect.
func (c *Client) Redirect(addr string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.addr == "" {
		c.mu.Unlock()
		return errors.New("edge: client has no dial address; cannot redirect")
	}
	c.addr = addr
	conn := c.conn
	c.mu.Unlock()
	c.Metrics.Redirects.Add(1)
	if conn != nil {
		c.failAll(conn, fmt.Errorf("edge: redirected to %s", addr))
	}
	return nil
}

// Close closes the connection, stops the keepalive prober, and fails
// every in-flight request with ErrClosed immediately — waiters do not
// linger until the read loop notices the closed socket.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	pending := c.pending
	c.pending = make(map[uint32]*waiter)
	c.connErr = ErrClosed
	c.mu.Unlock()
	close(c.done)
	for _, w := range pending {
		w.ch <- result{err: ErrClosed}
	}
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Connected reports whether the client currently holds a live,
// checked connection.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.closed && c.conn != nil && c.connErr == nil
}

// readLoop is the connection's demultiplexer: it reads frames until
// the connection dies and routes each reply to its waiter by frame ID.
// A correlation-set payload comes from proto's buffer pool and changes
// hands with the result: the waiter that receives it releases it when
// it has decoded it. A reply whose waiter
// is gone is released here; one parked in an abandoned waiter's channel
// is left to the collector.
func (c *Client) readLoop(conn net.Conn, fr *proto.FrameReader) {
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			c.failAll(conn, fmt.Errorf("edge: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		w := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if w != nil {
			w.ch <- result{typ: f.Type, payload: f.Payload}
		} else {
			proto.PutBuffer(f.Payload)
		}
	}
}

// failAll marks the connection dead and unblocks every waiter. A stale
// call from an already-replaced connection must not touch the current
// connection's waiters.
func (c *Client) failAll(conn net.Conn, err error) {
	c.mu.Lock()
	// A read/write failure on a connection Close already retired is
	// the close's own echo, not a lost connection: Close drained the
	// waiters and set the sticky ErrClosed, so there is nothing to
	// fail and nothing to count.
	if c.conn != conn || c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.connErr = err
	pending := c.pending
	c.pending = make(map[uint32]*waiter)
	c.mu.Unlock()
	c.Metrics.ConnLost.Add(1)
	conn.Close()
	for _, w := range pending {
		w.ch <- result{err: err}
	}
}

// ensure returns a live connection, redialling a Dial-built client
// whose previous connection died. Reconnection is serialised so two
// concurrent callers never race to install competing connections
// (the loser's in-flight request would become unfailable), and the
// caller's ctx bounds the dials, the handshakes, and the backoff
// sleeps between them. Up to redialAttempts connection attempts are
// made, paced by the redial policy; the sticky connection error (or
// the last dial failure) surfaces when they are exhausted.
func (c *Client) ensure(ctx context.Context) (net.Conn, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if c.connErr == nil && c.conn != nil {
			conn := c.conn
			c.mu.Unlock()
			return conn, nil
		}
		if lastErr == nil {
			lastErr = c.connErr
		}
		canRedial := c.addr != ""
		c.mu.Unlock()
		canRedial = canRedial || c.dialer != nil
		if lastErr == nil {
			lastErr = errors.New("edge: no connection")
		}
		if !canRedial || attempt >= c.redialAttempts {
			return nil, lastErr
		}
		if attempt > 0 {
			// Cancellation during the backoff sleep surfaces as the
			// caller's ctx error, not as the stale network failure:
			// an abort must be distinguishable from a flaky link.
			if err := c.redial.Sleep(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		c.dialMu.Lock()
		// Another caller may have reconnected while we waited; the
		// loop re-checks before dialling again.
		c.mu.Lock()
		fresh := c.connErr == nil && c.conn != nil
		c.mu.Unlock()
		if fresh {
			c.dialMu.Unlock()
			continue
		}
		conn, err := c.dial(ctx)
		if err == nil {
			if err = c.install(ctx, conn); err != nil {
				c.Metrics.DialFailures.Add(1)
				conn.Close()
			}
		}
		c.dialMu.Unlock()
		if err != nil {
			if errors.Is(err, ErrClosed) || ctx.Err() != nil {
				return nil, err
			}
			lastErr = err
			continue
		}
		c.Metrics.Reconnects.Add(1)
	}
}

// roundTrip registers a waiter, writes the request and awaits the
// matching reply, honouring ctx cancellation throughout.
func (c *Client) roundTrip(ctx context.Context, t proto.MsgType, encode func(b []byte, id uint32) []byte) (proto.MsgType, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	conn, err := c.ensure(ctx)
	if err != nil {
		return 0, nil, err
	}

	// Registration and the wire write happen under one write lock: the
	// request encodes under its registered ID into the client's one
	// scratch buffer.
	w := &waiter{ch: make(chan result, 1)}
	c.wmu.Lock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wmu.Unlock()
		return 0, nil, ErrClosed
	}
	if c.conn != conn || c.connErr != nil {
		c.mu.Unlock()
		c.wmu.Unlock()
		return 0, nil, errors.New("edge: connection lost during send")
	}
	c.seq++
	id := c.seq
	tenant := c.tenant
	fw := c.fw
	c.pending[id] = w
	c.mu.Unlock()

	var payload []byte
	if encode != nil {
		// Requests are encoded into the client's scratch: the write
		// below is the payload's only use. A rare oversize request (a
		// long ingest) is not kept.
		payload = encode(c.wbuf[:0], id)
		if cap(payload) <= maxEncodeScratch {
			c.wbuf = payload[:0]
		}
	}
	// A stalled peer must not wedge the write lock past the caller's
	// deadline: a tripped write deadline poisons the connection,
	// which failAll then retires.
	if d, ok := ctx.Deadline(); ok {
		conn.SetWriteDeadline(d)
	} else {
		conn.SetWriteDeadline(time.Time{})
	}
	err = fw.WriteFrame(t, id, tenant, payload)
	c.wmu.Unlock()
	if err != nil {
		c.failAll(conn, fmt.Errorf("edge: write: %w", err))
		select {
		case <-w.ch: // consume our own failure notice
		default: // an earlier failAll already drained this waiter's map
		}
		return 0, nil, fmt.Errorf("edge: write: %w", err)
	}

	select {
	case r := <-w.ch:
		c.lastUsed.Store(time.Now().UnixNano())
		if r.err != nil {
			return 0, nil, r.err
		}
		return r.typ, r.payload, nil
	case <-ctx.Done():
		// Abandon the request: a late reply finds no waiter and the
		// reader releases it.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return 0, nil, ctx.Err()
	}
}

// Ping round-trips a liveness probe.
func (c *Client) Ping(ctx context.Context) error {
	typ, _, err := c.roundTrip(ctx, proto.TypePing, nil)
	if err != nil {
		return err
	}
	if typ != proto.TypePong {
		return fmt.Errorf("edge: expected pong, got type %d", typ)
	}
	return nil
}

// Ingest pushes a preprocessed recording into the cloud-side store of
// the client's tenant, where it is sliced, labelled and becomes
// searchable immediately — the live-MDB half of the paper's design.
// ing.Seq is overwritten with the request ID. A refusal surfaces as a
// *CloudError.
func (c *Client) Ingest(ctx context.Context, ing *proto.Ingest) (*proto.IngestAck, error) {
	for hop := 0; ; hop++ {
		typ, resp, err := c.roundTrip(ctx, proto.TypeIngest, func(b []byte, id uint32) []byte {
			ing.Seq = id
			return proto.AppendIngest(b, ing)
		})
		if err != nil {
			return nil, fmt.Errorf("edge: ingest: %w", err)
		}
		switch typ {
		case proto.TypeIngestAck:
			return proto.DecodeIngestAck(resp)
		case proto.TypeMoved:
			if err := c.followMoved(resp, hop); err != nil {
				return nil, fmt.Errorf("edge: ingest: %w", err)
			}
			continue
		case proto.TypeError:
			em, derr := proto.DecodeError(resp)
			if derr != nil {
				return nil, derr
			}
			return nil, &CloudError{Code: em.Code, Text: em.Text}
		default:
			return nil, errors.New("edge: unexpected response type")
		}
	}
}

// followMoved re-points the client at the owner node a MOVED reply
// names so the caller can replay the request. One hop is the normal
// post-migration case; a second redirect for the same request means
// the cluster is flapping and the error surfaces instead.
func (c *Client) followMoved(payload []byte, hop int) error {
	mv, err := proto.DecodeMoved(payload)
	if err != nil {
		return fmt.Errorf("edge: undecodable MOVED reply: %w", err)
	}
	if hop >= 1 {
		return fmt.Errorf("edge: tenant %q moved again (to %s) while following a redirect", mv.Tenant, mv.Addr)
	}
	if err := c.Redirect(mv.Addr); err != nil {
		return err
	}
	return nil
}

// Search uploads a filtered one-second window and returns the cloud's
// signal correlation set. Concurrent calls pipeline on one connection;
// ctx bounds the whole exchange. The upload travels at routine
// priority; see SearchPri.
func (c *Client) Search(ctx context.Context, window []float64) (*proto.CorrSet, error) {
	return c.SearchPri(ctx, window, proto.PriRoutine)
}

// SearchPri uploads a window at an explicit admission priority. A
// saturated cloud sheds proto.PriRoutine uploads (the refusal surfaces
// as a *CloudError with the shed code) but keeps serving
// proto.PriAnomaly ones — a device whose predictor currently flags an
// anomaly uses it to preempt routine refreshes fleet-wide.
func (c *Client) SearchPri(ctx context.Context, window []float64, priority uint8) (*proto.CorrSet, error) {
	counts, scale := proto.Quantize(window)
	for hop := 0; ; hop++ {
		typ, resp, err := c.roundTrip(ctx, proto.TypeUpload, func(b []byte, id uint32) []byte {
			return proto.AppendUpload(b, &proto.Upload{Seq: id, Scale: scale, Samples: counts, Priority: priority})
		})
		if err != nil {
			return nil, fmt.Errorf("edge: search: %w", err)
		}
		switch typ {
		case proto.TypeCorrSet:
			// The decoded set owns its samples outright, so the reply
			// buffer's last use is the decode.
			cs, err := proto.DecodeCorrSet(resp)
			proto.PutBuffer(resp)
			return cs, err
		case proto.TypeMoved:
			if err := c.followMoved(resp, hop); err != nil {
				return nil, fmt.Errorf("edge: search: %w", err)
			}
			continue
		case proto.TypeError:
			em, derr := proto.DecodeError(resp)
			if derr != nil {
				return nil, derr
			}
			return nil, &CloudError{Code: em.Code, Text: em.Text}
		default:
			return nil, errors.New("edge: unexpected response type")
		}
	}
}
