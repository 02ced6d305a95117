package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"testing"

	"emap/internal/cloud"
	"emap/internal/mdb"
	"emap/internal/proto"
)

// hostileSnapshots returns a good columnar image of one ingested
// record and the three images a replica must refuse: a gob snapshot
// (the format stores were saved in before the columnar image became
// the only one), the columnar image cut in half, and the columnar
// image with one byte flipped in its record index.
func hostileSnapshots(t *testing.T) (good []byte, bad map[string][]byte) {
	t.Helper()
	src := mdb.NewStore()
	in := walClusterIngest("rec-0", 0)
	if _, err := src.InsertQuantized(&mdb.Record{ID: in.RecordID, Onset: -1}, in.Samples, in.Scale, 256, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Snapshot().SaveColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	good = buf.Bytes()

	// gob matches fields by name: these are the old image's.
	type gobRecord struct {
		ID     string
		Counts []int16
		Scale  float64
	}
	var gobImg bytes.Buffer
	if err := gob.NewEncoder(&gobImg).Encode(struct {
		Version int
		Records []gobRecord
	}{1, []gobRecord{{ID: in.RecordID, Counts: in.Samples, Scale: float64(in.Scale)}}}); err != nil {
		t.Fatal(err)
	}

	flipped := append([]byte(nil), good...)
	indexOff := binary.LittleEndian.Uint64(good[24:]) // header: the record index's offset
	flipped[indexOff+10] ^= 0x40

	return good, map[string][]byte{
		"gob":       gobImg.Bytes(),
		"truncated": append([]byte(nil), good[:len(good)/2]...),
		"flipped":   flipped,
	}
}

func replicateFrame(id uint32, tenant string, promote bool, snap []byte) proto.Frame {
	return proto.Frame{Version: proto.Version3, Type: proto.TypeReplicate, ID: id, Tenant: tenant,
		Payload: proto.EncodeReplicate(&proto.Replicate{Tenant: tenant, Promote: promote, Snapshot: snap})}
}

// TestHostileReplicasRefused: a shipped snapshot goes through the
// columnar parser's bounds and checksums before it can become a tenant.
// A transfer (Promote) of a bad image gets a 400 and adopts nothing; a
// parked replica of one is accepted as bytes, but promoting it fails
// and the tenant stays absent rather than coming up empty or corrupt.
func TestHostileReplicasRefused(t *testing.T) {
	good, bad := hostileSnapshots(t)
	reg, err := mdb.NewRegistry("", 0)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(reg, NodeConfig{ID: "n1", Addr: "127.0.0.1:1",
		Cloud: cloud.Config{SliceLen: 256, CacheSize: -1}, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	if typ, _ := node.ServeFrame(replicateFrame(1, "ward-good", true, good)); typ != proto.TypeReplicateAck {
		t.Fatalf("good transfer answered type %d, want ack", typ)
	}
	if s, ok := reg.Get("ward-good"); !ok || s.NumRecords() != 1 {
		t.Fatal("good transfer not adopted")
	}

	for name, img := range bad {
		tenant := "ward-" + name
		typ, payload := node.ServeFrame(replicateFrame(2, tenant, true, img))
		em, err := proto.DecodeError(payload)
		if typ != proto.TypeError || err != nil || em.Code != 400 {
			t.Fatalf("%s transfer answered type %d (%+v, %v), want a 400 error", name, typ, em, err)
		}
		if _, ok := reg.Get(tenant); ok {
			t.Fatalf("%s transfer adopted tenant %q", name, tenant)
		}
	}

	// Own every tenant, then park the same images: the first request
	// for each tenant promotes its parked copy, which must fail.
	if typ, _ := node.ServeFrame(proto.Frame{Version: proto.Version3, Type: proto.TypeRing, ID: 3,
		Payload: proto.EncodeRing(&proto.Ring{Epoch: 1, Nodes: []proto.RingNode{{ID: "n1", Addr: "127.0.0.1:1"}}})}); typ != proto.TypeRingAck {
		t.Fatalf("ring push answered type %d, want ack", typ)
	}
	for name, img := range bad {
		tenant := "parked-" + name
		if typ, _ := node.ServeFrame(replicateFrame(4, tenant, false, img)); typ != proto.TypeReplicateAck {
			t.Fatalf("%s parked replica answered type %d, want ack", name, typ)
		}
		typ, payload := node.ServeFrame(proto.Frame{Version: proto.Version3, Type: proto.TypeUpload, ID: 5, Tenant: tenant})
		em, err := proto.DecodeError(payload)
		if typ != proto.TypeError || err != nil || em.Code != 500 {
			t.Fatalf("request over a parked %s replica answered type %d (%+v, %v), want the failed promotion", name, typ, em, err)
		}
		if _, ok := reg.Get(tenant); ok {
			t.Fatalf("parked %s replica left tenant %q live", name, tenant)
		}
	}
	if got := node.Metrics.Promotions.Load(); got != 0 {
		t.Fatalf("Promotions = %d, want 0", got)
	}
}
