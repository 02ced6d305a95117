package edge

import (
	"context"
	"net"
	"testing"

	"emap/internal/cloud"
	"emap/internal/mdb"
	"emap/internal/proto"
)

// TestProtocolInteropMatrix drives every client×server version pairing
// (v1/v2/v3 both sides, nine combinations) through negotiation and a
// search, asserting the negotiated version is the minimum of the two
// and every pairing still serves correctly. Clients always ask for a
// named tenant: on a v3 connection the request routes to that tenant's
// store, on anything lower the tenant is dropped on the wire and the
// request must land on the server's default tenant — the
// backwards-compatibility half of the multi-tenant design.
func TestProtocolInteropMatrix(t *testing.T) {
	store, _ := buildStore(t)
	// A window excised from a stored recording retrieves its own
	// signal-set at ω ≈ 1 in every pairing — no luck involved.
	var buf []float64
	window, ok := store.Snapshot().WindowInto(&buf, store.Sets()[0], 2048, 256)
	if !ok {
		t.Fatal("the first record has no window at 2048")
	}

	for sv := proto.Version1; sv <= proto.Version3; sv++ {
		for cv := proto.Version1; cv <= proto.Version3; cv++ {
			// Both the default tenant and ward-7 serve the same
			// store, so a retrieved set proves routing without
			// caring which tenant answered; the metrics below pin
			// down which one actually did.
			reg, err := mdb.NewRegistry("", 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{cloud.DefaultTenant, "ward-7"} {
				if err := reg.Adopt(id, store); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := cloud.NewRegistryServer(reg, cloud.Config{MaxVersion: sv})
			if err != nil {
				t.Fatal(err)
			}
			cConn, sConn := net.Pipe()
			go srv.HandleConn(sConn)

			client, err := NewClientOpts(cConn, ClientOptions{
				Tenant: "ward-7", MaxVersion: cv})
			if err != nil {
				t.Fatalf("s%d×c%d: handshake: %v", sv, cv, err)
			}
			want := cv
			if sv < want {
				want = sv
			}
			if got := client.Version(); got != want {
				t.Fatalf("s%d×c%d: negotiated v%d, want v%d", sv, cv, got, want)
			}

			cs, err := client.Search(context.Background(), window)
			if err != nil {
				t.Fatalf("s%d×c%d: search: %v", sv, cv, err)
			}
			if len(cs.Entries) == 0 {
				t.Fatalf("s%d×c%d: empty correlation set", sv, cv)
			}

			// Tenant accounting: only a v3 connection carries the
			// tenant; everything below lands on the default tenant.
			if want >= proto.Version3 {
				if m := srv.MetricsFor("ward-7"); m == nil || m.Requests.Load() != 1 {
					t.Fatalf("s%d×c%d: tenant ward-7 not routed", sv, cv)
				}
				if m := srv.MetricsFor(""); m != nil && m.Requests.Load() != 0 {
					t.Fatalf("s%d×c%d: default tenant leaked %d requests", sv, cv, m.Requests.Load())
				}
			} else {
				if m := srv.MetricsFor(""); m == nil || m.Requests.Load() != 1 {
					t.Fatalf("s%d×c%d: legacy request missed the default tenant", sv, cv)
				}
				if m := srv.MetricsFor("ward-7"); m != nil {
					t.Fatalf("s%d×c%d: tenant opened on a pre-v3 connection", sv, cv)
				}
			}
			cConn.Close()
		}
	}
}

// TestInteropTrueV1Server pairs the modern client against a hand-
// rolled v1-era server that answers Hello with TypeError (it predates
// negotiation entirely) — the tenth pairing the in-process matrix
// cannot produce. The client must fall back to serial v1 and a search
// must still work; the tenant silently stays home.
func TestInteropTrueV1Server(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	go func() {
		// Ancient server: rejects the Hello, then speaks plain v1.
		if _, _, err := proto.ReadFrame(sConn); err != nil {
			t.Errorf("server: %v", err)
			return
		}
		payload := proto.EncodeError(&proto.ErrorMsg{Code: 400, Text: "unexpected message type 6"})
		if err := proto.WriteFrame(sConn, proto.TypeError, payload); err != nil {
			t.Errorf("server: %v", err)
			return
		}
		typ, p, err := proto.ReadFrame(sConn)
		if err != nil || typ != proto.TypeUpload {
			t.Errorf("server: upload: %d, %v", typ, err)
			return
		}
		u, err := proto.DecodeUpload(p)
		if err != nil {
			t.Errorf("server: %v", err)
			return
		}
		cs := &proto.CorrSet{Seq: u.Seq}
		if err := proto.WriteFrame(sConn, proto.TypeCorrSet, proto.EncodeCorrSet(cs)); err != nil {
			t.Errorf("server: %v", err)
		}
	}()
	client, err := NewClientOpts(cConn, ClientOptions{Tenant: "ward-7"})
	if err != nil {
		t.Fatal(err)
	}
	if client.Version() != proto.Version1 {
		t.Fatalf("negotiated v%d, want v1", client.Version())
	}
	if _, err := client.Search(context.Background(), make([]float64, 256)); err != nil {
		t.Fatalf("v1 fallback search with tenant set: %v", err)
	}
}

// TestTenantPinnedIngestRefusesOldConnection: a client pinned to a
// tenant must refuse to ingest over a connection negotiated below v3
// — the wire would drop the tenant and the recording would land, with
// a success ack, in the server's shared default store (a silent
// cross-tenant write).
func TestTenantPinnedIngestRefusesOldConnection(t *testing.T) {
	store, _ := buildStore(t)
	srv, err := cloud.NewServer(store, cloud.Config{MaxVersion: proto.Version2})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)
	client, err := NewClientOpts(cConn, ClientOptions{Tenant: "ward-7"})
	if err != nil {
		t.Fatal(err)
	}
	if client.Version() != proto.Version2 {
		t.Fatalf("negotiated v%d, want v2", client.Version())
	}
	_, err = client.Ingest(context.Background(), &proto.Ingest{
		RecordID: "r1", Onset: -1, Scale: 1, Samples: make([]int16, 2048)})
	if err == nil {
		t.Fatal("tenant-pinned ingest over v2 must refuse")
	}
	if m := srv.MetricsFor(""); m != nil && m.Ingests.Load() != 0 {
		t.Fatal("refused ingest still reached the default tenant")
	}
}

// TestIngestAgainstOldServer: a v3 client's Ingest against a server
// capped below v3 must surface a clean error (the old server rejects
// the unknown message type), never hang or misroute.
func TestIngestAgainstOldServer(t *testing.T) {
	store, _ := buildStore(t)
	srv, err := cloud.NewServer(store, cloud.Config{MaxVersion: proto.Version2})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go srv.HandleConn(sConn)
	client, err := NewClient(cConn)
	if err != nil {
		t.Fatal(err)
	}
	// This server build does understand TypeIngest even on a v2
	// connection (it routes to the default tenant), so the exchange
	// succeeds — the compatibility contract is "no hang, no
	// misrouting", and the ack proves the default tenant took it.
	ack, err := client.Ingest(context.Background(), &proto.Ingest{
		RecordID: "compat-1", Onset: -1, Scale: 1,
		Samples: make([]int16, 2048),
	})
	if err != nil {
		t.Fatalf("ingest over v2: %v", err)
	}
	if ack.Sets == 0 {
		t.Fatal("ingest created no sets")
	}
	if m := srv.MetricsFor(""); m == nil || m.Ingests.Load() != 1 {
		t.Fatal("ingest missed the default tenant")
	}
}
