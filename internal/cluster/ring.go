// Package cluster turns N cloud nodes into one logical cloud. A
// consistent-hash ring with virtual nodes maps every tenant ID to an
// owning node (and the next distinct node as its replica); a thin
// Router the edge dials speaks the existing protocol — every frame
// already carries the tenant ID, which is the routing key — and proxies
// each Search/Ingest to the owner over pooled connections with backoff
// and retry-on-moved; membership changes migrate tenants to their new
// owners (drain → snapshot → transfer → brief forwarding window); and
// every ingest ships the tenant's snapshot to its replica node, so a
// node death loses no patient data — the Router detects the failure,
// shrinks the ring, and the replica holder promotes its copy.
//
// The pieces recombine the cloud package's layers: a Node is a
// cloud.Engine wrapped with ring-ownership checks behind its own
// cloud.Transport; the Router is a cloud.Transport with no engine at
// all behind it. See DESIGN.md §12.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"emap/internal/proto"
)

// DefaultVirtualNodes is the ring points each node projects. More
// points smooth the tenant distribution (the classic consistent-
// hashing variance argument); 64 keeps the imbalance under ~20% for
// small clusters while the points slice stays tiny.
const DefaultVirtualNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash placement of nodes on a
// 64-bit circle. Tenants hash onto the circle and belong to the first
// node point at or after their hash (wrapping); the replica is the
// next DISTINCT node along the circle. Placement is deterministic in
// the node IDs alone — every participant that holds the same member
// list computes identical ownership, no coordination needed.
type Ring struct {
	epoch  uint64
	vnodes int
	nodes  []proto.RingNode // sorted by ID
	points []ringPoint      // sorted by hash
}

// hash64 is FNV-64a with a 64-bit finalizer — stable across processes
// and platforms, which placement requires (a map seed or per-process
// hash would scatter tenants differently on every node). Raw FNV is
// not enough: a trailing-byte difference ("ward-1" vs "ward-2", the
// natural shape of tenant IDs) perturbs it by at most ~2^45, far less
// than the ~2^56 average arc between ring points, so consecutive IDs
// would pile onto one node. The finalizer (Murmur3's fmix64) gives
// every input bit full avalanche over the circle.
func hash64(parts ...string) uint64 {
	f := fnv.New64a()
	for i, p := range parts {
		if i > 0 {
			f.Write([]byte{0}) // separator: ("ab","c") ≠ ("a","bc")
		}
		f.Write([]byte(p))
	}
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing places the given members on the circle with vnodes virtual
// nodes each (≤0 selects DefaultVirtualNodes). Node IDs must be
// non-empty and unique; the epoch orders ring generations (receivers
// ignore pushes that do not advance it).
func NewRing(epoch uint64, members []proto.RingNode, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	nodes := append([]proto.RingNode(nil), members...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	seen := make(map[string]struct{}, len(nodes))
	for _, n := range nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("cluster: ring member with empty ID")
		}
		if _, dup := seen[n.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", n.ID)
		}
		seen[n.ID] = struct{}{}
	}
	r := &Ring{epoch: epoch, vnodes: vnodes, nodes: nodes}
	r.points = make([]ringPoint, 0, len(nodes)*vnodes)
	for i, n := range nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(n.ID, fmt.Sprintf("%d", v)),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node index so every
		// participant still sorts identically.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Epoch returns the ring's generation number.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Nodes returns the members, sorted by ID. Callers must not mutate
// the returned slice.
func (r *Ring) Nodes() []proto.RingNode { return r.nodes }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Wire returns the ring in its control-frame form.
func (r *Ring) Wire() *proto.Ring {
	return &proto.Ring{Epoch: r.epoch, Nodes: r.nodes}
}

// succ returns the index into r.points of the first point at or after
// h, wrapping past the top of the circle.
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node owning the tenant. ok is false on an empty
// ring.
func (r *Ring) Owner(tenant string) (proto.RingNode, bool) {
	if len(r.points) == 0 {
		return proto.RingNode{}, false
	}
	return r.nodes[r.points[r.succ(hash64(tenant))].node], true
}

// Replica returns the tenant's replica holder: the first node after
// the owner along the circle that is a different node. ok is false
// when the ring has fewer than two nodes — there is nowhere distinct
// to replicate to.
func (r *Ring) Replica(tenant string) (proto.RingNode, bool) {
	if len(r.nodes) < 2 {
		return proto.RingNode{}, false
	}
	start := r.succ(hash64(tenant))
	owner := r.points[start].node
	for i := 1; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if p.node != owner {
			return r.nodes[p.node], true
		}
	}
	return proto.RingNode{}, false
}

// WithNode returns a new ring, one epoch ahead, with the node added
// (or its address updated, when the ID is already a member).
func (r *Ring) WithNode(n proto.RingNode) (*Ring, error) {
	members := make([]proto.RingNode, 0, len(r.nodes)+1)
	for _, m := range r.nodes {
		if m.ID != n.ID {
			members = append(members, m)
		}
	}
	members = append(members, n)
	return NewRing(r.epoch+1, members, r.vnodes)
}

// WithoutNode returns a new ring, one epoch ahead, with the node
// removed. Removing an unknown ID just advances the epoch.
func (r *Ring) WithoutNode(id string) (*Ring, error) {
	members := make([]proto.RingNode, 0, len(r.nodes))
	for _, m := range r.nodes {
		if m.ID != id {
			members = append(members, m)
		}
	}
	return NewRing(r.epoch+1, members, r.vnodes)
}
