package cluster

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"emap/internal/backoff"
	"emap/internal/cloud"
	"emap/internal/mdb"
	"emap/internal/proto"
)

// NodeConfig parameterises one cluster member.
type NodeConfig struct {
	// ID is the node's stable identity; its ring placement hashes
	// from it, so it must survive restarts (a hostname, not a PID).
	ID string
	// Addr is the address peers and the router dial to reach this
	// node's listener.
	Addr string
	// Cloud parameterises the tenant engine (zero values take the
	// paper defaults, as in cloud.Config).
	Cloud cloud.Config
	// ForwardWindow is how long after migrating a tenant away the
	// node proxies that tenant's requests to the new owner instead of
	// answering MOVED, so in-flight edges never see a failure
	// (default 10 s).
	ForwardWindow time.Duration
	// Retry paces connection retries toward peer nodes (zero value:
	// backoff defaults).
	Retry backoff.Policy
	// Logger receives node diagnostics; nil disables logging.
	Logger *log.Logger
}

// NodeMetrics counts cluster-specific node activity (all fields
// atomic); the serving metrics live on the engine's cloud.Metrics.
type NodeMetrics struct {
	// Redirects counts MOVED replies sent; Forwards counts requests
	// proxied to the new owner during a forwarding window.
	Redirects atomic.Int64
	Forwards  atomic.Int64
	// Migrations counts tenants handed off to a new owner;
	// Promotions counts parked replicas promoted to live stores.
	Migrations atomic.Int64
	Promotions atomic.Int64
	// Replications counts snapshot ships to this tenant's replica
	// node; ReplicationErrors the ones that failed (logged, never
	// fatal to the triggering ingest).
	Replications      atomic.Int64
	ReplicationErrors atomic.Int64
}

// movedEntry records where a migrated tenant went and until when
// requests for it are proxied rather than redirected.
type movedEntry struct {
	addr    string
	forward time.Time // proxy until; redirect with MOVED after
}

// Node is one member of the cluster: a cloud.Engine (tenant registry,
// caches, batching, worker pool) wrapped with ring-ownership checks
// and the cluster control frames, behind its own cloud.Transport. A
// node with no ring installed behaves exactly like a single-process
// cloud server; once a Ring push arrives it refuses tenants it does
// not own (MOVED), migrates tenants away when membership changes
// re-home them, ships every owned tenant's snapshot to its replica
// node after each ingest, and promotes parked replica snapshots it
// holds when the ring makes it the owner.
type Node struct {
	id            string
	addr          string
	eng           *cloud.Engine
	tr            *cloud.Transport
	forwardWindow time.Duration
	retry         backoff.Policy
	logger        *log.Logger

	mu        sync.Mutex
	ring      *Ring
	moved     map[string]movedEntry
	replicas  map[string][]byte        // parked snapshot per tenant
	migrating map[string]chan struct{} // barrier per tenant mid-handoff
	pools     map[string]*pool         // per peer address
	closed    bool

	// Metrics exposes the cluster-side counters; engine counters are
	// on Engine().Metrics.
	Metrics NodeMetrics
}

// NewNode returns a cluster node over the given tenant registry.
func NewNode(reg *mdb.Registry, cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	eng, err := cloud.NewEngine(reg, cfg.Cloud)
	if err != nil {
		return nil, err
	}
	if cfg.ForwardWindow <= 0 {
		cfg.ForwardWindow = 10 * time.Second
	}
	n := &Node{
		id:            cfg.ID,
		addr:          cfg.Addr,
		eng:           eng,
		forwardWindow: cfg.ForwardWindow,
		retry:         cfg.Retry,
		logger:        cfg.Logger,
		moved:         make(map[string]movedEntry),
		replicas:      make(map[string][]byte),
		migrating:     make(map[string]chan struct{}),
		pools:         make(map[string]*pool),
	}
	n.tr = cloud.NewTransport(n, cfg.Cloud.TransportConfig(&eng.Metrics))
	return n, nil
}

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.id }

// Engine exposes the node's tenant engine (in-process search/ingest,
// metrics, registry access).
func (n *Node) Engine() *cloud.Engine { return n.eng }

// Ring returns the node's current ring view (nil before the first
// push).
func (n *Node) Ring() *Ring {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring
}

// Serve accepts connections until the listener is closed.
func (n *Node) Serve(l net.Listener) error { return n.tr.Serve(l) }

// HandleConn serves one peer connection.
func (n *Node) HandleConn(conn net.Conn) { n.tr.HandleConn(conn) }

// Close stops the node immediately.
func (n *Node) Close() error {
	n.eng.Stop()
	n.mu.Lock()
	n.closed = true
	pools := n.pools
	n.pools = map[string]*pool{}
	n.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	return n.tr.Close()
}

// Shutdown drains the node gracefully (see cloud.Transport.Shutdown).
func (n *Node) Shutdown(ctx context.Context) error {
	n.eng.Stop()
	err := n.tr.Shutdown(ctx)
	n.mu.Lock()
	pools := n.pools
	n.pools = map[string]*pool{}
	n.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	return err
}

func (n *Node) logf(format string, args ...any) {
	if n.logger != nil {
		n.logger.Printf(format, args...)
	}
}

// poolFor returns the connection pool toward a peer address.
func (n *Node) poolFor(addr string) *pool {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.pools[addr]
	if !ok {
		p = newPool(addr, n.retry)
		n.pools[addr] = p
	}
	return p
}

// ServeFrame implements cloud.FrameHandler: cluster control frames are
// handled here, requests pass the ownership check and land on the
// engine.
func (n *Node) ServeFrame(f proto.Frame) (proto.MsgType, []byte) {
	switch f.Type {
	case proto.TypeRing:
		return n.serveRing(f)
	case proto.TypeReplicate:
		return n.serveReplicate(f)
	case proto.TypeHandoff:
		return n.serveHandoff(f)
	default:
		return n.serveTenantFrame(f)
	}
}

// errReply builds a TypeError response.
func errReply(code uint16, format string, args ...any) (proto.MsgType, []byte) {
	return proto.TypeError, proto.EncodeError(&proto.ErrorMsg{Code: code, Text: fmt.Sprintf(format, args...)})
}

// serveTenantFrame routes one request frame: wait out a migration in
// progress, proxy or redirect tenants that left, promote a parked
// replica the ring now assigns here, then serve through the engine.
func (n *Node) serveTenantFrame(f proto.Frame) (proto.MsgType, []byte) {
	tenant := f.Tenant
	if tenant == "" {
		tenant = n.eng.Config().DefaultTenant
	}
	for {
		n.mu.Lock()
		barrier := n.migrating[tenant]
		n.mu.Unlock()
		if barrier == nil {
			break
		}
		// A handoff of this tenant is in flight: hold the request at
		// the door until the transfer lands, then route it to
		// wherever the tenant ended up — this is the drain that keeps
		// in-flight edges from racing the migration.
		select {
		case <-barrier:
		case <-time.After(30 * time.Second):
			return errReply(503, "cluster: tenant %q migration stalled", tenant)
		}
	}

	n.mu.Lock()
	ring := n.ring
	mv, hasMoved := n.moved[tenant]
	n.mu.Unlock()

	if ring != nil {
		owner, ok := ring.Owner(tenant)
		if ok && owner.ID != n.id {
			if hasMoved && time.Now().Before(mv.forward) {
				n.Metrics.Forwards.Add(1)
				return n.forward(f, tenant, mv.addr)
			}
			n.Metrics.Redirects.Add(1)
			return proto.TypeMoved, proto.EncodeMoved(&proto.Moved{Tenant: tenant, Addr: owner.Addr})
		}
		// This node owns the tenant: a parked replica snapshot, if
		// any, is the authoritative copy left by the dead previous
		// owner — promote it before the engine opens an empty store.
		if err := n.promoteParked(tenant); err != nil {
			return errReply(500, "cluster: promoting replica of %q: %v", tenant, err)
		}
	}

	typ, payload := n.eng.ServeFrame(f)
	if f.Type == proto.TypeIngest && typ == proto.TypeIngestAck {
		n.replicateTenant(tenant)
	}
	return typ, payload
}

// forward proxies one request to the tenant's new owner and relays
// the reply — the brief post-migration window during which in-flight
// requests must not fail.
func (n *Node) forward(f proto.Frame, tenant, addr string) (proto.MsgType, []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	typ, payload, err := n.poolFor(addr).roundTrip(ctx, f.Type, tenant, f.Payload, 2)
	if err != nil {
		return errReply(502, "cluster: forwarding %q to %s: %v", tenant, addr, err)
	}
	return typ, payload
}

// promoteParked loads a parked replica snapshot as the tenant's live
// store. No-op when none is parked or the tenant is already live.
func (n *Node) promoteParked(tenant string) error {
	n.mu.Lock()
	snap, ok := n.replicas[tenant]
	if ok {
		delete(n.replicas, tenant)
	}
	n.mu.Unlock()
	if !ok {
		return nil
	}
	reg := n.eng.Registry()
	if _, live := reg.Get(tenant); live {
		// The tenant is already serving here; the parked copy is, at
		// best, an older epoch of the same data. Dropping it is safe:
		// the live store wins.
		return nil
	}
	store, err := mdb.LoadColumnar(bytes.NewReader(snap))
	if err != nil {
		return err
	}
	if err := reg.Adopt(tenant, store); err != nil {
		// A racing request may have opened (empty) or adopted the
		// tenant between the Get and here; the live store wins, the
		// parked bytes are already consumed. Only a still-absent
		// tenant is a real failure.
		if _, live := reg.Get(tenant); live {
			return nil
		}
		return err
	}
	n.Metrics.Promotions.Add(1)
	n.logf("cluster: node %s promoted replica of tenant %q (%d records)", n.id, tenant, store.NumRecords())
	return nil
}

// replicateTenant ships the tenant's current snapshot to its replica
// node. Failures are logged, never surfaced to the triggering ingest:
// the primary copy is intact, and the next ingest re-replicates.
func (n *Node) replicateTenant(tenant string) {
	n.mu.Lock()
	ring := n.ring
	n.mu.Unlock()
	if ring == nil {
		return
	}
	replica, ok := ring.Replica(tenant)
	if !ok || replica.ID == n.id {
		return
	}
	store, ok := n.eng.Registry().Get(tenant)
	if !ok {
		return
	}
	var buf bytes.Buffer
	if err := store.Snapshot().SaveColumnar(&buf); err != nil {
		n.Metrics.ReplicationErrors.Add(1)
		n.logf("cluster: snapshotting tenant %q for replication: %v", tenant, err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	payload := proto.EncodeReplicate(&proto.Replicate{Tenant: tenant, Snapshot: buf.Bytes()})
	typ, _, err := n.poolFor(replica.Addr).roundTrip(ctx, proto.TypeReplicate, tenant, payload, 2)
	if err != nil {
		n.Metrics.ReplicationErrors.Add(1)
		n.logf("cluster: replicating tenant %q to %s: %v", tenant, replica.Addr, err)
		return
	}
	if typ != proto.TypeReplicateAck {
		n.Metrics.ReplicationErrors.Add(1)
		n.logf("cluster: replica %s answered type %d for tenant %q", replica.Addr, typ, tenant)
		return
	}
	n.Metrics.Replications.Add(1)
}

// serveRing adopts a pushed membership table. Adoption is synchronous:
// parked replicas this node now owns are promoted, and local tenants
// the new ring homes elsewhere are migrated before the ack goes out,
// so the pusher (the router) knows the cluster is settled when every
// ack is in.
func (n *Node) serveRing(f proto.Frame) (proto.MsgType, []byte) {
	wire, err := proto.DecodeRing(f.Payload)
	if err != nil {
		return errReply(400, "cluster: bad ring push: %v", err)
	}
	ring, err := NewRing(wire.Epoch, wire.Nodes, 0)
	if err != nil {
		return errReply(400, "cluster: bad ring push: %v", err)
	}
	n.mu.Lock()
	if n.ring != nil && ring.Epoch() <= n.ring.Epoch() {
		held := n.ring.Epoch()
		n.mu.Unlock()
		// Stale or duplicate push: keep the newer table, tell the
		// pusher which epoch rules here.
		return proto.TypeRingAck, proto.EncodeRingAck(&proto.RingAck{Epoch: held})
	}
	n.ring = ring
	parked := make([]string, 0, len(n.replicas))
	for tenant := range n.replicas {
		parked = append(parked, tenant)
	}
	n.mu.Unlock()

	// Promote parked replicas the new ring assigns to this node —
	// eagerly, so a dead node's tenants are live here before their
	// first retried request arrives.
	for _, tenant := range parked {
		if owner, ok := ring.Owner(tenant); ok && owner.ID == n.id {
			if err := n.promoteParked(tenant); err != nil {
				n.logf("cluster: promoting replica of %q on ring adoption: %v", tenant, err)
			}
		}
	}

	// Migrate local tenants the new ring homes elsewhere: the open
	// ones and the ones parked on disk.
	reg := n.eng.Registry()
	local := make(map[string]struct{})
	for _, t := range reg.List() {
		local[t] = struct{}{}
	}
	for _, t := range reg.ListStored() {
		local[t] = struct{}{}
	}
	for tenant := range local {
		owner, ok := ring.Owner(tenant)
		if !ok || owner.ID == n.id {
			continue
		}
		if err := n.migrateTenant(tenant, owner.Addr); err != nil {
			n.logf("cluster: migrating tenant %q to %s: %v", tenant, owner.Addr, err)
		}
	}
	return proto.TypeRingAck, proto.EncodeRingAck(&proto.RingAck{Epoch: ring.Epoch()})
}

// serveReplicate stores a shipped snapshot: parked as the passive
// replica copy, or — on a promote ship, the migration transfer — loaded
// as the live store.
func (n *Node) serveReplicate(f proto.Frame) (proto.MsgType, []byte) {
	rep, err := proto.DecodeReplicate(f.Payload)
	if err != nil {
		return errReply(400, "cluster: bad replicate: %v", err)
	}
	tenant := rep.Tenant
	if !mdb.ValidTenantID(tenant) {
		return errReply(400, "cluster: bad replicate tenant %q", tenant)
	}
	if !rep.Promote {
		n.mu.Lock()
		n.replicas[tenant] = rep.Snapshot
		n.mu.Unlock()
		return proto.TypeReplicateAck, proto.EncodeReplicateAck(&proto.ReplicateAck{
			Tenant: tenant, Bytes: uint32(len(rep.Snapshot))})
	}

	store, err := mdb.LoadColumnar(bytes.NewReader(rep.Snapshot))
	if err != nil {
		return errReply(400, "cluster: loading transferred tenant %q: %v", tenant, err)
	}
	reg := n.eng.Registry()
	if existing, live := reg.Get(tenant); live {
		// A racing request opened the tenant before the transfer
		// landed. An empty store holds nothing and yields; anything
		// else would be overwritten data, so the transfer is refused
		// (the sender keeps its copy and can retry).
		if existing.NumRecords() > 0 {
			return errReply(409, "cluster: tenant %q already live with %d records", tenant, existing.NumRecords())
		}
		reg.Drop(tenant)
	}
	if err := reg.Adopt(tenant, store); err != nil {
		return errReply(500, "cluster: adopting transferred tenant %q: %v", tenant, err)
	}
	// A transfer supersedes whatever replica copy was parked here.
	n.mu.Lock()
	delete(n.replicas, tenant)
	delete(n.moved, tenant)
	n.mu.Unlock()
	return proto.TypeReplicateAck, proto.EncodeReplicateAck(&proto.ReplicateAck{
		Tenant: tenant, Bytes: uint32(len(rep.Snapshot))})
}

// serveHandoff migrates one tenant to the target node on the router's
// order (the AddNode rebalance path).
func (n *Node) serveHandoff(f proto.Frame) (proto.MsgType, []byte) {
	h, err := proto.DecodeHandoff(f.Payload)
	if err != nil {
		return errReply(400, "cluster: bad handoff: %v", err)
	}
	if err := n.migrateTenant(h.Tenant, h.TargetAddr); err != nil {
		return errReply(500, "cluster: handoff of %q: %v", h.Tenant, err)
	}
	return proto.TypeHandoffAck, proto.EncodeHandoffAck(&proto.HandoffAck{Tenant: h.Tenant})
}

// migrateTenant drains, snapshots and transfers one tenant to the node
// at addr, then surrenders the local copy and opens the forwarding
// window. New requests for the tenant wait at the migration barrier
// and are routed onward once the transfer lands.
func (n *Node) migrateTenant(tenant, addr string) error {
	n.mu.Lock()
	if _, busy := n.migrating[tenant]; busy {
		n.mu.Unlock()
		return fmt.Errorf("cluster: tenant %q already migrating", tenant)
	}
	barrier := make(chan struct{})
	n.migrating[tenant] = barrier
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.migrating, tenant)
		n.mu.Unlock()
		close(barrier)
	}()

	reg := n.eng.Registry()
	store, err := reg.Open(tenant)
	if err != nil {
		return err
	}
	// Drain: new requests are held at the barrier; requests already
	// inside the engine finish and advance the store's epoch. Wait
	// for the epoch to sit still before capturing the transfer
	// snapshot, so acknowledged ingests ride along.
	snap := store.Snapshot()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		cur := store.Snapshot()
		if cur == snap {
			break
		}
		snap = cur
	}
	var buf bytes.Buffer
	if err := snap.SaveColumnar(&buf); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	payload := proto.EncodeReplicate(&proto.Replicate{Tenant: tenant, Promote: true, Snapshot: buf.Bytes()})
	typ, reply, err := n.poolFor(addr).roundTrip(ctx, proto.TypeReplicate, tenant, payload, 3)
	if err != nil {
		return err
	}
	if typ != proto.TypeReplicateAck {
		if typ == proto.TypeError {
			if em, derr := proto.DecodeError(reply); derr == nil {
				return fmt.Errorf("cluster: target refused transfer: %d %s", em.Code, em.Text)
			}
		}
		return fmt.Errorf("cluster: target answered transfer with type %d", typ)
	}
	// The target holds the data now; surrender the local copy so no
	// stale twin can serve or be resurrected from disk.
	reg.Drop(tenant)
	if err := reg.DropSnapshot(tenant); err != nil {
		n.logf("cluster: removing migrated snapshot of %q: %v", tenant, err)
	}
	n.mu.Lock()
	n.moved[tenant] = movedEntry{addr: addr, forward: time.Now().Add(n.forwardWindow)}
	n.mu.Unlock()
	n.Metrics.Migrations.Add(1)
	n.logf("cluster: node %s migrated tenant %q to %s (%d bytes)", n.id, tenant, addr, buf.Len())
	return nil
}
