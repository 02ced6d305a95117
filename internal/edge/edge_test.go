package edge

import (
	"context"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"emap/internal/cloud"
	"emap/internal/dsp"
	"emap/internal/mdb"
	"emap/internal/proto"
	"emap/internal/search"
	"emap/internal/synth"
	"emap/internal/track"
)

// buildStore assembles the shared test MDB.
func buildStore(t testing.TB) (*mdb.Store, *synth.Generator) {
	t.Helper()
	g := synth.NewGenerator(synth.Config{Seed: 51, ArchetypesPerClass: 3})
	var recs []*synth.Recording
	for arch := 0; arch < 3; arch++ {
		for i := 0; i < 4; i++ {
			recs = append(recs,
				g.Instance(synth.Normal, arch, synth.InstanceOpts{
					OffsetSamples: i * 2000, DurSeconds: 90}),
				g.Instance(synth.Seizure, arch, synth.InstanceOpts{
					OffsetSamples: synth.PreictalAt*256 + i*2000, DurSeconds: 120}),
			)
		}
	}
	store, err := mdb.Build(recs, mdb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return store, g
}

// pipePair wires a client directly to an in-process server over
// net.Pipe.
func pipePair(t testing.TB, store *mdb.Store) *Client {
	t.Helper()
	srv, err := cloud.NewServer(store, cloud.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return pipeClient(t, srv)
}

// pipeClient wires a client to an existing server over net.Pipe.
func pipeClient(t testing.TB, srv *cloud.Server) *Client {
	t.Helper()
	cConn, sConn := net.Pipe()
	go srv.HandleConn(sConn)
	t.Cleanup(func() { cConn.Close() })
	client, err := NewClient(cConn)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestPingPong(t *testing.T) {
	store, _ := buildStore(t)
	client := pipePair(t, store)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
}

func TestSearchOverPipe(t *testing.T) {
	store, g := buildStore(t)
	client := pipePair(t, store)
	dev, err := NewDevice(client, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 20, NoArtifacts: true})
	tracked := 0
	for k := 0; k+256 <= len(input.Samples); k += 256 {
		st, err := dev.PushSecond(input.Samples[k : k+256])
		if err != nil {
			t.Fatalf("slot %d: %v", st.Window, err)
		}
		if st.Tracking {
			tracked++
			if st.Remaining == 0 && st.PA != 0 {
				t.Fatalf("inconsistent status: %+v", st)
			}
		}
	}
	if tracked == 0 {
		t.Fatal("device never tracked anything")
	}
}

func TestDistributedPrediction(t *testing.T) {
	store, g := buildStore(t)
	client := pipePair(t, store)
	dev, err := NewDevice(client, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.SeizureInput(0, 30, 28)
	for k := 0; k+256 <= len(input.Samples); k += 256 {
		if _, err := dev.PushSecond(input.Samples[k : k+256]); err != nil {
			t.Fatal(err)
		}
	}
	// Background refreshes may land between slots; allow a beat.
	time.Sleep(50 * time.Millisecond)
	if !dev.Predictor().Anomalous() {
		t.Fatalf("distributed pipeline missed the preictal input (PA %v)", dev.Predictor().History())
	}
}

func TestDeviceOverTCP(t *testing.T) {
	store, g := buildStore(t)
	srv, err := cloud.NewServer(store, cloud.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	client, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Ping(context.Background()); err != nil {
		t.Fatalf("ping over TCP: %v", err)
	}

	dev, err := NewDevice(client, Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 1, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 12, NoArtifacts: true})
	for k := 0; k+256 <= len(input.Samples); k += 256 {
		if _, err := dev.PushSecond(input.Samples[k : k+256]); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Metrics.Requests.Load() == 0 {
		t.Fatal("server saw no requests")
	}
}

func TestServerRejectsGarbageFrame(t *testing.T) {
	store, _ := buildStore(t)
	srv, err := cloud.NewServer(store, cloud.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	go srv.HandleConn(sConn)
	defer cConn.Close()
	// A malformed Upload payload must produce a protocol error reply.
	if err := proto.NewFrameWriter(cConn).WriteFrame(proto.TypeUpload, 0, "", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f, err := proto.ReadFrameAny(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != proto.TypeError {
		t.Fatalf("expected error reply, got type %d", f.Type)
	}
	em, err := proto.DecodeError(f.Payload)
	if err != nil || em.Code != 400 {
		t.Fatalf("error reply: %+v, %v", em, err)
	}
	if srv.Metrics.Errors.Load() == 0 {
		t.Fatal("error not counted")
	}
}

func TestServerRejectsUnknownType(t *testing.T) {
	store, _ := buildStore(t)
	srv, _ := cloud.NewServer(store, cloud.Config{})
	cConn, sConn := net.Pipe()
	go srv.HandleConn(sConn)
	defer cConn.Close()
	if err := proto.NewFrameWriter(cConn).WriteFrame(proto.MsgType(99), 0, "", nil); err != nil {
		t.Fatal(err)
	}
	f, err := proto.ReadFrameAny(cConn)
	if err != nil || f.Type != proto.TypeError {
		t.Fatalf("unknown type reply: %d, %v", f.Type, err)
	}
}

func TestClientSurvivesCloudDeath(t *testing.T) {
	store, g := buildStore(t)
	srv, _ := cloud.NewServer(store, cloud.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	client, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	dev, err := NewDevice(client, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the cloud mid-session: PushSecond must surface an error,
	// not hang or panic.
	srv.Close()
	time.Sleep(20 * time.Millisecond)
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 4, NoArtifacts: true})
	var lastErr error
	for k := 0; k+256 <= len(input.Samples); k += 256 {
		if _, err := dev.PushSecond(input.Samples[k : k+256]); err != nil {
			lastErr = err
		}
	}
	if lastErr == nil {
		t.Fatal("dead cloud produced no error")
	}
	if !strings.Contains(lastErr.Error(), "edge:") {
		t.Fatalf("error lacks context: %v", lastErr)
	}
}

// TestEmptyStoreServesEmptySets: a tenant may start empty and fill
// via ingest, so an empty (or nil) store no longer fails at startup —
// searches simply return an empty correlation set until data arrives.
func TestEmptyStoreServesEmptySets(t *testing.T) {
	for _, store := range []*mdb.Store{nil, mdb.NewStore()} {
		srv, err := cloud.NewServer(store, cloud.Config{})
		if err != nil {
			t.Fatalf("empty store rejected: %v", err)
		}
		client := pipeClient(t, srv)
		cs, err := client.Search(context.Background(), make([]float64, 256))
		if err != nil {
			t.Fatalf("search on empty store: %v", err)
		}
		if len(cs.Entries) != 0 {
			t.Fatalf("empty store returned %d entries", len(cs.Entries))
		}
	}
}

func TestDeviceRejectsBadSlot(t *testing.T) {
	store, _ := buildStore(t)
	client := pipePair(t, store)
	dev, err := NewDevice(client, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.PushSecond(make([]float64, 100)); err == nil {
		t.Fatal("short slot should error")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Fatal("dial to a closed port should error")
	}
}

func TestCorrSetEntriesCarryContinuations(t *testing.T) {
	store, g := buildStore(t)
	srv, _ := cloud.NewServer(store, cloud.Config{HorizonSeconds: 4})
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{
		OffsetSamples: 2500, DurSeconds: 6, NoArtifacts: true})
	counts, scale := proto.Quantize(input.Samples[1024:1280])
	corrSet, err := srv.Search(&proto.Upload{Seq: 1, Scale: scale, Samples: counts})
	if err != nil {
		t.Fatal(err)
	}
	if len(corrSet.Entries) == 0 {
		t.Skip("no matches for this window")
	}
	for _, e := range corrSet.Entries {
		if len(e.Samples) < 256 {
			t.Fatalf("entry %d carries only %d samples", e.SetID, len(e.Samples))
		}
	}
}

// TestFetchedSetIsTheCloudRecordsWindow: a downloaded entry is a slice
// of the cloud's record — its counts, on the record's own scale — so a
// device's mini-MDB holds, per signal, exactly what the mega-database
// holds from the matched offset on: the same counts, dequantizing to the
// same µV with ==. Tracking the mini-MDB is therefore tracking the
// cloud's store: a tracker over the cloud's records at the matched
// offsets follows the same input step for step — same eliminations, same
// areas, same P_A — for as long as the downloaded horizon lasts.
func TestFetchedSetIsTheCloudRecordsWindow(t *testing.T) {
	store, g := buildStore(t)
	// A low δ, so that the set holds signals that track and signals that
	// are eliminated along the way.
	srv, err := cloud.NewServer(store, cloud.Config{Search: search.Params{Delta: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(pipeClient(t, srv), Config{})
	if err != nil {
		t.Fatal(err)
	}
	input := g.Instance(synth.Normal, 0, synth.InstanceOpts{OffsetSamples: 2500, DurSeconds: 12, NoArtifacts: true})
	fir, err := dsp.DesignBandpass(100, 11, 40, 256, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	filtered := fir.Apply(input.Samples)
	window := filtered[512:768]
	mini, matches, err := dev.fetch(context.Background(), window, proto.PriRoutine)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 5 {
		t.Fatalf("only %d signals downloaded", len(matches))
	}
	// The same upload answered directly names each entry's set and offset
	// in the cloud's store.
	counts, scale := proto.Quantize(window)
	direct, err := srv.Search(&proto.Upload{Scale: scale, Samples: counts})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Entries) != len(matches) {
		t.Fatalf("%d signals downloaded, the direct answer has %d", len(matches), len(direct.Entries))
	}
	cloudSnap, miniSnap := store.Snapshot(), mini.Snapshot()
	cloudMatches := make([]search.Match, len(matches))
	for i, m := range matches {
		e := direct.Entries[i]
		cloudMatches[i] = search.Match{SetID: int(e.SetID), Omega: float64(e.Omega), Beta: int(e.Beta)}
		set, cloudSet := miniSnap.Sets()[m.SetID], cloudSnap.Sets()[e.SetID]
		rec, _ := miniSnap.Record(set.RecordID)
		cloudRec, _ := cloudSnap.Record(cloudSet.RecordID)
		if rec.Samples != nil {
			t.Fatalf("downloaded record %q holds float samples", rec.ID)
		}
		off := cloudSet.Start + int(e.Beta)
		if rec.Quant().Scale != cloudRec.Quant().Scale || !slices.Equal(rec.Quant().Counts, cloudRec.Quant().Counts[off:off+rec.Len()]) {
			t.Fatalf("signal %d: the downloaded record is not the cloud record's counts from %d on", i, off)
		}
		got, _ := miniSnap.Window(set, 0, rec.Len())
		want, ok := cloudSnap.Window(cloudSet, int(e.Beta), rec.Len())
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("signal %d: the downloaded record dequantizes to other µV than the cloud record's window", i)
		}
	}
	params := dev.trackParams(mini, len(matches))
	onMini, onCloud := track.NewTracker(mini, matches, params), track.NewTracker(store, cloudMatches, params)
	// Seven steps: the 8 s horizon holds the matched window and seven
	// more, past which only the cloud's records go on.
	for k := 3; k < 10; k++ {
		counts, scale := proto.Quantize(filtered[k*256 : (k+1)*256])
		next := proto.Dequantize(counts, scale)
		a, b := onMini.Step(next), onCloud.Step(next)
		a.Elapsed, b.Elapsed = 0, 0
		if a != b {
			t.Fatalf("window %d: tracking the download gives %+v, the cloud's records %+v", k, a, b)
		}
		for i, w := range onMini.Tracked() {
			if o := onCloud.Tracked()[i]; w.Alive != o.Alive || w.LastArea != o.LastArea {
				t.Fatalf("window %d signal %d: area %g alive %v on the download, %g %v on the cloud's records", k, i, w.LastArea, w.Alive, o.LastArea, o.Alive)
			}
		}
	}
	if onMini.Iteration() < 5 {
		t.Fatalf("only %d tracking steps compared", onMini.Iteration())
	}
}
