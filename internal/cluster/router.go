package cluster

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/backoff"
	"emap/internal/cloud"
	"emap/internal/proto"
)

// RouterConfig parameterises the routing tier.
type RouterConfig struct {
	// MaxInFlight bounds concurrently served edge requests (0: the
	// cloud default).
	MaxInFlight int
	// Retry paces connection retries toward cluster nodes (zero
	// value: backoff defaults).
	Retry backoff.Policy
	// VirtualNodes sets the ring's virtual nodes per member (≤0:
	// DefaultVirtualNodes).
	VirtualNodes int
	// IdleTimeout, when positive, reaps edge connections that deliver
	// no frame for this long (see cloud.TransportConfig.IdleTimeout).
	IdleTimeout time.Duration
	// Logger receives router diagnostics; nil disables logging.
	Logger *log.Logger
}

// RouterMetrics counts routing activity (all fields atomic); the
// serving counters live on Router.Metrics.
type RouterMetrics struct {
	// MovedRetries counts requests replayed after a MOVED redirect;
	// NodeFailures counts nodes evicted from the ring after their
	// connections died.
	MovedRetries atomic.Int64
	NodeFailures atomic.Int64
}

// RouterMetricsSnapshot is a plain-value copy of a RouterMetrics,
// taken with atomic loads.
type RouterMetricsSnapshot struct {
	MovedRetries int64
	NodeFailures int64
}

// Snapshot returns a race-safe copy of the routing counters.
func (m *RouterMetrics) Snapshot() RouterMetricsSnapshot {
	return RouterMetricsSnapshot{
		MovedRetries: m.MovedRetries.Load(),
		NodeFailures: m.NodeFailures.Load(),
	}
}

// Router is the coordinator the edge dials. It speaks the same wire
// protocol as a single cloud server — edges need no cluster awareness
// beyond the tenant their frames already carry — and proxies every request
// to the tenant's owning node over pooled connections. It is a
// cloud.Transport with no engine behind it: the "handler" is pure
// forwarding. When a node stops answering, the router removes it from
// the ring, pushes the shrunk table to the survivors (whoever parked
// the dead node's tenant replicas promotes them on adoption), and
// replays the request against the new owner; membership is changed
// administratively through AddNode/RemoveNode, which rebalance by the
// same push-and-migrate protocol.
type Router struct {
	cfg    RouterConfig
	tr     *cloud.Transport
	logger *log.Logger

	mu    sync.Mutex
	ring  *Ring
	pools map[string]*pool
	byID  map[string]proto.RingNode // current members by ID

	// Metrics carries the transport-level counters (requests, frames,
	// connections); Routing the cluster-specific ones.
	Metrics cloud.Metrics
	Routing RouterMetrics
}

// routeAttempts bounds how many node evictions one request may ride
// out; movedHops bounds MOVED-redirect chains (one hop is the normal
// forwarding case, a second covers a migration racing the first).
const (
	routeAttempts = 4
	movedHops     = 3
)

// NewRouter returns a router with an empty ring; seed membership with
// SetNodes or AddNode before serving edges.
func NewRouter(cfg RouterConfig) *Router {
	r := &Router{
		cfg:    cfg,
		logger: cfg.Logger,
		pools:  make(map[string]*pool),
		byID:   make(map[string]proto.RingNode),
	}
	r.tr = cloud.NewTransport(r, cloud.TransportConfig{
		MaxInFlight: cfg.MaxInFlight,
		IdleTimeout: cfg.IdleTimeout,
		Logger:      cfg.Logger,
		Metrics:     &r.Metrics,
	})
	return r
}

// Serve accepts edge connections until the listener is closed.
func (r *Router) Serve(l net.Listener) error { return r.tr.Serve(l) }

// HandleConn serves one edge connection.
func (r *Router) HandleConn(conn net.Conn) { r.tr.HandleConn(conn) }

// Close stops the router immediately.
func (r *Router) Close() error {
	err := r.tr.Close()
	r.mu.Lock()
	pools := r.pools
	r.pools = map[string]*pool{}
	r.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	return err
}

// Shutdown drains edge connections gracefully.
func (r *Router) Shutdown(ctx context.Context) error {
	err := r.tr.Shutdown(ctx)
	r.mu.Lock()
	pools := r.pools
	r.pools = map[string]*pool{}
	r.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	return err
}

// Ring returns the router's current ring (nil before membership is
// seeded).
func (r *Router) Ring() *Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

func (r *Router) logf(format string, args ...any) {
	if r.logger != nil {
		r.logger.Printf(format, args...)
	}
}

func (r *Router) poolFor(addr string) *pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.pools[addr]
	if !ok {
		p = newPool(addr, r.cfg.Retry)
		r.pools[addr] = p
	}
	return p
}

// SetNodes seeds or replaces the whole membership in one step and
// pushes the resulting ring to every member.
func (r *Router) SetNodes(ctx context.Context, members []proto.RingNode) error {
	r.mu.Lock()
	epoch := uint64(1)
	if r.ring != nil {
		epoch = r.ring.Epoch() + 1
	}
	ring, err := NewRing(epoch, members, r.cfg.VirtualNodes)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	r.adoptLocked(ring)
	r.mu.Unlock()
	return r.pushRing(ctx, ring)
}

// AddNode joins a node (or updates its address) and rebalances: the
// new ring goes to every member — including the joiner — and each
// member migrates the tenants the new placement takes from it.
func (r *Router) AddNode(ctx context.Context, n proto.RingNode) error {
	r.mu.Lock()
	if r.ring == nil {
		r.mu.Unlock()
		return r.SetNodes(ctx, []proto.RingNode{n})
	}
	ring, err := r.ring.WithNode(n)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	r.adoptLocked(ring)
	r.mu.Unlock()
	return r.pushRing(ctx, ring)
}

// RemoveNode retires a node gracefully: the shrunk ring goes to every
// member — the leaver included, so it migrates its tenants to their
// new owners before the router stops routing to it.
func (r *Router) RemoveNode(ctx context.Context, id string) error {
	r.mu.Lock()
	if r.ring == nil {
		r.mu.Unlock()
		return fmt.Errorf("cluster: no ring to remove %q from", id)
	}
	leaver, known := r.byID[id]
	ring, err := r.ring.WithoutNode(id)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	r.adoptLocked(ring)
	r.mu.Unlock()
	// The leaver is no longer a member, so pushRing skips it; push to
	// it explicitly so it drains itself.
	if known {
		r.pushRingTo(ctx, leaver.Addr, ring)
	}
	return r.pushRing(ctx, ring)
}

// adoptLocked installs a ring; r.mu must be held.
func (r *Router) adoptLocked(ring *Ring) {
	r.ring = ring
	r.byID = make(map[string]proto.RingNode, ring.Len())
	for _, n := range ring.Nodes() {
		r.byID[n.ID] = n
	}
}

// pushRing sends the ring to every member. Push failures are logged
// and tolerated — a node that cannot hear the push is handled by the
// request-path failure detector when traffic next needs it.
func (r *Router) pushRing(ctx context.Context, ring *Ring) error {
	var firstErr error
	for _, n := range ring.Nodes() {
		if err := r.pushRingTo(ctx, n.Addr, ring); err != nil {
			r.logf("cluster: pushing ring e%d to %s (%s): %v", ring.Epoch(), n.ID, n.Addr, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// pushRingTo ships one ring table to one node and waits for its ack
// (the node migrates before acking, so a clean return means that node
// is settled under the new placement).
func (r *Router) pushRingTo(ctx context.Context, addr string, ring *Ring) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
	}
	payload := proto.EncodeRing(ring.Wire())
	typ, reply, err := r.poolFor(addr).roundTrip(ctx, proto.TypeRing, "", payload, 2)
	if err != nil {
		return err
	}
	if typ != proto.TypeRingAck {
		return fmt.Errorf("cluster: node %s answered ring push with type %d", addr, typ)
	}
	if _, err := proto.DecodeRingAck(reply); err != nil {
		return err
	}
	return nil
}

// dropNode removes a failed node from the ring and pushes the shrunk
// table to the survivors. Returns the new ring, or nil when the node
// was already gone (a concurrent request got there first).
func (r *Router) dropNode(id string) *Ring {
	r.mu.Lock()
	if r.ring == nil {
		r.mu.Unlock()
		return nil
	}
	n, member := r.byID[id]
	if !member {
		r.mu.Unlock()
		return nil
	}
	ring, err := r.ring.WithoutNode(id)
	if err != nil {
		r.mu.Unlock()
		return nil
	}
	r.adoptLocked(ring)
	p := r.pools[n.Addr]
	delete(r.pools, n.Addr)
	r.mu.Unlock()
	if p != nil {
		p.close()
	}
	r.Routing.NodeFailures.Add(1)
	r.logf("cluster: node %s (%s) unresponsive; ring shrinks to e%d with %d nodes", id, n.Addr, ring.Epoch(), ring.Len())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	r.pushRing(ctx, ring)
	return ring
}

// ServeFrame implements cloud.FrameHandler: pure forwarding, the
// router holds no tenant state.
func (r *Router) ServeFrame(f proto.Frame) (proto.MsgType, []byte) {
	switch f.Type {
	case proto.TypeUpload, proto.TypeIngest:
		return r.route(f)
	default:
		return errReply(400, "cluster: router cannot serve message type %d", f.Type)
	}
}

// route forwards one request to the tenant's owner, riding out MOVED
// redirects (migration windows) and node failures (evict, re-ring,
// replay against the promoted replica's node).
func (r *Router) route(f proto.Frame) (proto.MsgType, []byte) {
	tenant := f.Tenant
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var lastErr error
	for attempt := 0; attempt < routeAttempts; attempt++ {
		r.mu.Lock()
		ring := r.ring
		r.mu.Unlock()
		if ring == nil || ring.Len() == 0 {
			return errReply(503, "cluster: no nodes in ring")
		}
		owner, _ := ring.Owner(tenant)
		addr := owner.Addr

		for hop := 0; hop <= movedHops; hop++ {
			typ, reply, err := r.poolFor(addr).roundTrip(ctx, f.Type, tenant, f.Payload, 2)
			if err != nil {
				lastErr = err
				if ctx.Err() != nil {
					return errReply(504, "cluster: routing %q: %v", tenant, err)
				}
				// The owner is unreachable: evict it, let the replica
				// holder promote, replay. A MOVED target dying mid-hop
				// lands here too — the outer loop re-resolves.
				if addr == owner.Addr {
					r.dropNode(owner.ID)
				}
				break
			}
			if typ == proto.TypeMoved {
				mv, derr := proto.DecodeMoved(reply)
				if derr != nil {
					return errReply(502, "cluster: undecodable MOVED for %q: %v", tenant, derr)
				}
				r.Routing.MovedRetries.Add(1)
				addr = mv.Addr
				continue
			}
			return typ, reply
		}
	}
	return errReply(502, "cluster: routing %q failed after %d attempts: %v", tenant, routeAttempts, lastErr)
}
