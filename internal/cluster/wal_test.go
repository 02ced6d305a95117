package cluster

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"emap/internal/cloud"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/wal"
)

// walClusterIngest builds a deterministic preprocessed recording as a
// wire ingest for the cluster durability tests.
func walClusterIngest(id string, seq uint32) *proto.Ingest {
	samples := make([]float64, 1024)
	for i := range samples {
		samples[i] = 35*math.Sin(2*math.Pi*float64(i)/89) + 9*math.Sin(2*math.Pi*float64(i)/11+float64(seq))
	}
	counts, scale := proto.Quantize(samples)
	return &proto.Ingest{Seq: seq, RecordID: id, Onset: -1, Scale: scale, Samples: counts}
}

// TestNodeRestartReplaysWAL: a cluster node whose engine journals
// ingests recovers every acknowledged ingest after a hard crash — the
// node is abandoned without closing its registry, then rebuilt over
// the same snapshot and WAL directories.
func TestNodeRestartReplaysWAL(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()
	mk := func() (*Node, *mdb.Registry) {
		reg, err := mdb.NewRegistry(snapDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		node, err := NewNode(reg, NodeConfig{
			ID:   "n1",
			Addr: "127.0.0.1:1",
			Cloud: cloud.Config{
				SliceLen: 256, CacheSize: -1,
				WALDir: walDir, WALSync: wal.SyncAlways,
			},
			Retry: fastRetry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return node, reg
	}

	n1, _ := mk()
	for i := uint32(0); i < 3; i++ {
		id := fmt.Sprintf("node-rec-%d", i)
		if _, err := n1.Engine().Ingest("ward-a", walClusterIngest(id, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Hard crash: the transport dies, the registry is never closed, no
	// snapshot is ever persisted — the WAL is the only durable copy.
	n1.Close()

	n2, reg2 := mk()
	defer n2.Close()
	store, err := reg2.Open("ward-a")
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("node-rec-%d", i)
		if _, ok := store.Record(id); !ok {
			t.Fatalf("acked ingest %s lost across node restart", id)
		}
	}
	if got := reg2.WALMetrics().Replayed.Load(); got != 3 {
		t.Fatalf("Replayed = %d, want 3", got)
	}
}

// TestNodePromoteParkedReplaysWALTail: when a ring push makes this
// node the owner of a tenant it holds a parked replica snapshot for,
// the promotion (registry.Adopt) also replays the tenant's local WAL
// tail — the replica catch-up path: the parked snapshot may trail the
// journal, and adopted stores must not lose the journaled records.
func TestNodePromoteParkedReplaysWALTail(t *testing.T) {
	snapDir, walDir := t.TempDir(), t.TempDir()

	// Seed the tenant's journal with a record the parked snapshot does
	// not hold — the tail a crashed owner left behind.
	var wm wal.Metrics
	lg, err := wal.Open(filepath.Join(walDir, "ward-a.wal"), wal.Options{}, &wm)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(proto.EncodeIngest(walClusterIngest("tail-rec", 9))); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	reg, err := mdb.NewRegistry(snapDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(reg, NodeConfig{
		ID:   "n1",
		Addr: "127.0.0.1:1",
		Cloud: cloud.Config{
			SliceLen: 256, CacheSize: -1,
			WALDir: walDir, WALSync: wal.SyncAlways,
		},
		Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Park a replica snapshot holding only the base record.
	base := mdb.NewStore()
	rec := &mdb.Record{ID: "base-rec", Onset: -1,
		Samples: proto.Dequantize(walClusterIngest("base-rec", 1).Samples, walClusterIngest("base-rec", 1).Scale)}
	if _, err := base.Insert(rec, 256, func(int) bool { return false }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := base.Snapshot().SaveColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	typ, _ := node.ServeFrame(proto.Frame{Version: proto.Version3, Type: proto.TypeReplicate, ID: 1,
		Tenant: "ward-a", Payload: proto.EncodeReplicate(&proto.Replicate{Tenant: "ward-a", Snapshot: buf.Bytes()})})
	if typ != proto.TypeReplicateAck {
		t.Fatalf("replicate reply type %d, want ack", typ)
	}

	// The ring push assigns the tenant here: adoption promotes the
	// parked snapshot and must replay the journal tail into it.
	typ, _ = node.ServeFrame(proto.Frame{Version: proto.Version3, Type: proto.TypeRing, ID: 2,
		Payload: proto.EncodeRing(&proto.Ring{Epoch: 1, Nodes: []proto.RingNode{{ID: "n1", Addr: "127.0.0.1:1"}}})})
	if typ != proto.TypeRingAck {
		t.Fatalf("ring reply type %d, want ack", typ)
	}

	store, ok := reg.Get("ward-a")
	if !ok {
		t.Fatal("tenant not live after promotion")
	}
	if _, ok := store.Record("base-rec"); !ok {
		t.Fatal("parked snapshot record lost in promotion")
	}
	if _, ok := store.Record("tail-rec"); !ok {
		t.Fatal("journal tail not replayed into promoted replica")
	}
	if got := reg.WALMetrics().Replayed.Load(); got != 1 {
		t.Fatalf("Replayed = %d, want 1", got)
	}
}
