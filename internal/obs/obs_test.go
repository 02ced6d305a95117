package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"emap/internal/cloud"
	"emap/internal/cluster"
	"emap/internal/mdb"
	"emap/internal/proto"
)

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:\\\\|\\"|\\n|[^"\\])*",?)*\})? (\S+)$`)
)

// parseExposition validates the Prometheus text format rules the
// exposition must satisfy — every sample line parses, every sample's
// family has a preceding # TYPE, no series appears twice — and
// returns the samples keyed by name{labels}.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	typed := make(map[string]string)
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := typeRe.FindStringSubmatch(line); m != nil {
				if _, dup := typed[m[1]]; dup {
					t.Fatalf("duplicate # TYPE for %s", m[1])
				}
				typed[m[1]] = m[2]
				continue
			}
			if helpRe.MatchString(line) {
				continue
			}
			t.Fatalf("malformed comment line: %q", line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, labels, raw := m[1], m[2], m[3]
		if _, ok := typed[name]; !ok {
			t.Fatalf("sample %s has no preceding # TYPE", name)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		key := name + labels
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate series %s", key)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty exposition")
	}
	return out
}

func testUpload(seq uint32) proto.Frame {
	window := make([]int16, 256)
	for i := range window {
		window[i] = int16(5*i%201 - 100)
	}
	return proto.Frame{
		Version: proto.Version3,
		Type:    proto.TypeUpload,
		ID:      seq,
		Payload: proto.EncodeUpload(&proto.Upload{Seq: seq, Scale: 1, Samples: window}),
	}
}

// TestMetricsEndpoint is the acceptance test: a loaded cloud server's
// /metrics endpoint serves a valid Prometheus text exposition with
// the expected series, over real HTTP.
func TestMetricsEndpoint(t *testing.T) {
	srv, err := cloud.NewServer(nil, cloud.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for seq := uint32(0); seq < 5; seq++ {
		if typ, _ := srv.ServeFrame(testUpload(seq)); typ != proto.TypeCorrSet {
			t.Fatalf("load upload %d failed (type %d)", seq, typ)
		}
	}
	other := testUpload(9)
	other.Tenant = "ward-1"
	if typ, _ := srv.ServeFrame(other); typ != proto.TypeCorrSet {
		t.Fatalf("tenant upload failed (type %d)", typ)
	}

	reg := NewRegistry()
	reg.Register(CloudCollector(srv.Engine))
	reg.Register(RuntimeCollector())

	ep, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	resp, err := http.Get("http://" + ep.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Fatalf("content type %q, want %q", ct, ContentType)
	}

	samples := parseExposition(t, string(body))
	if got := samples[`emap_tenant_requests_total{tenant="default"}`]; got < 5 {
		t.Fatalf("default tenant requests = %v, want >= 5", got)
	}
	if got := samples[`emap_tenant_requests_total{tenant="ward-1"}`]; got != 1 {
		t.Fatalf("ward-1 requests = %v, want 1", got)
	}
	for _, want := range []string{
		"emap_cloud_cache_misses_total",
		"emap_cloud_search_backlog",
		"emap_cloud_rate_limited_total",
		"emap_cloud_shed_total",
		"emap_go_goroutines",
		`emap_tenant_store_bytes{tenant="default",tier="hot"}`,
		`emap_tenant_store_bytes{tenant="default",tier="warm"}`,
		`emap_tenant_store_bytes{tenant="default",tier="cold"}`,
		`emap_tenant_store_promotions_total{tenant="default"}`,
		`emap_tenant_store_demotions_total{tenant="default"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Fatalf("exposition missing %s", want)
		}
	}

	hz, err := http.Get("http://" + ep.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d", hz.StatusCode)
	}
}

// TestStoreTierMetrics: a quantized-store tenant reports its resident
// footprint per tier — ingested records sit warm (int16 in the heap),
// nothing hot until a float access promotes — plus the lifetime
// promotion/demotion counters.
func TestStoreTierMetrics(t *testing.T) {
	srv, err := cloud.NewServer(nil, cloud.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wave := make([]float64, 2500)
	for i := range wave {
		wave[i] = 40 * math.Sin(float64(i)/7)
	}
	counts, scale := proto.Quantize(wave)
	ing := proto.Frame{
		Version: proto.Version3,
		Type:    proto.TypeIngest,
		ID:      1,
		Payload: proto.EncodeIngest(&proto.Ingest{Seq: 1, RecordID: "live-1", Onset: -1, Scale: scale, Samples: counts}),
	}
	if typ, _ := srv.ServeFrame(ing); typ != proto.TypeIngestAck {
		t.Fatalf("ingest reply type %d", typ)
	}

	reg := NewRegistry()
	reg.Register(CloudCollector(srv.Engine))
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, buf.String())
	if warm := samples[`emap_tenant_store_bytes{tenant="default",tier="warm"}`]; warm <= 0 {
		t.Fatalf("warm store bytes = %v, want > 0 after quantized ingest", warm)
	}
	if hot := samples[`emap_tenant_store_bytes{tenant="default",tier="hot"}`]; hot != 0 {
		t.Fatalf("hot store bytes = %v, want 0 before any float access", hot)
	}
	if promos := samples[`emap_tenant_store_promotions_total{tenant="default"}`]; promos != 0 {
		t.Fatalf("promotions = %v, want 0", promos)
	}
}

// TestWriteTextEscaping: label values and help text with quotes,
// backslashes, and newlines must escape per the exposition grammar
// and still parse.
func TestWriteTextEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Register(CollectorFunc(func(emit func(Sample)) {
		emit(Sample{
			Name:   "emap_test_nasty",
			Help:   "line one\nline \\two",
			Kind:   Gauge,
			Labels: []Label{{Name: "path", Value: `C:\tmp "x"` + "\n"}},
			Value:  1.5,
		})
	}))
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, `# HELP emap_test_nasty line one\nline \\two`) {
		t.Fatalf("help not escaped:\n%s", body)
	}
	if !strings.Contains(body, `emap_test_nasty{path="C:\\tmp \"x\"\n"} 1.5`) {
		t.Fatalf("label value not escaped:\n%s", body)
	}
	parseExposition(t, body)
}

// TestWriteTextRejectsInvalidNames: a bad metric or label name is an
// error, not a corrupt exposition.
func TestWriteTextRejectsInvalidNames(t *testing.T) {
	for _, s := range []Sample{
		{Name: "bad-name", Value: 1},
		{Name: "ok_name", Labels: []Label{{Name: "bad-label", Value: "v"}}, Value: 1},
		{Name: "ok_name2", Labels: []Label{{Name: "__reserved", Value: "v"}}, Value: 1},
	} {
		reg := NewRegistry()
		sample := s
		reg.Register(CollectorFunc(func(emit func(Sample)) { emit(sample) }))
		if err := reg.WriteText(io.Discard); err == nil {
			t.Fatalf("sample %+v accepted", s)
		}
	}
}

// TestRouterCollector: a ringless router still collects cleanly, and
// a seeded ring exports its shape.
func TestRouterCollector(t *testing.T) {
	r := cluster.NewRouter(cluster.RouterConfig{})
	defer r.Close()
	var b strings.Builder
	reg := NewRegistry()
	reg.Register(RouterCollector(r))
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, b.String())
	if _, ok := samples["emap_router_moved_retries_total"]; !ok {
		t.Fatal("missing emap_router_moved_retries_total")
	}
	if _, ok := samples["emap_router_ring_nodes"]; ok {
		t.Fatal("ring gauges exported before a ring exists")
	}
}

// TestWALMetricsExposed: a WAL-enabled engine exports the emap_wal_*
// durability counters (and the robustness counters ride along); an
// engine without a journal exports none of them.
func TestWALMetricsExposed(t *testing.T) {
	reg, err := mdb.NewRegistry(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cloud.NewRegistryServer(reg, cloud.Config{SliceLen: 256, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	samples := make([]int16, 1024)
	for i := range samples {
		samples[i] = int16(7*i%301 - 150)
	}
	if _, err := srv.Ingest("ward-a", &proto.Ingest{Seq: 1, RecordID: "rec-a", Onset: -1, Scale: 1, Samples: samples}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	mreg := NewRegistry()
	mreg.Register(CloudCollector(srv.Engine))
	if err := mreg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := parseExposition(t, b.String())
	if got["emap_wal_appends_total"] < 1 {
		t.Fatalf("emap_wal_appends_total = %v, want >= 1", got["emap_wal_appends_total"])
	}
	for _, want := range []string{
		"emap_wal_appended_bytes_total",
		"emap_wal_syncs_total",
		"emap_wal_sync_seconds_total",
		"emap_wal_replayed_total",
		"emap_wal_torn_tails_total",
		"emap_wal_truncated_bytes_total",
		"emap_wal_checkpoints_total",
		"emap_cloud_panics_total",
		"emap_cloud_persist_errors_total",
		"emap_cloud_idle_reaped_total",
	} {
		if _, ok := got[want]; !ok {
			t.Fatalf("exposition missing %s", want)
		}
	}

	// No journal, no WAL families.
	plain, err := cloud.NewServer(nil, cloud.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	b.Reset()
	mreg = NewRegistry()
	mreg.Register(CloudCollector(plain.Engine))
	if err := mreg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if got := parseExposition(t, b.String()); func() bool { _, ok := got["emap_wal_appends_total"]; return ok }() {
		t.Fatal("WAL counters exported without a journal")
	}
}

// TestFamilyOrderingStable: samples of one family emitted from
// different collectors still group under a single # TYPE header.
func TestFamilyOrderingStable(t *testing.T) {
	reg := NewRegistry()
	for _, tenant := range []string{"b", "a"} {
		tenant := tenant
		reg.Register(CollectorFunc(func(emit func(Sample)) {
			emit(Sample{
				Name:   "emap_shared_total",
				Kind:   Counter,
				Labels: []Label{{Name: "tenant", Value: tenant}},
				Value:  1,
			})
		}))
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if strings.Count(body, "# TYPE emap_shared_total") != 1 {
		t.Fatalf("family split across TYPE headers:\n%s", body)
	}
	ai := strings.Index(body, `tenant="a"`)
	bi := strings.Index(body, `tenant="b"`)
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("samples not label-sorted:\n%s", body)
	}
	parseExposition(t, body)
}
