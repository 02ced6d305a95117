package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke size — the same code paths at
// about a fiftieth of the ops — untraced twice on one seed and once on
// another, and traced once. It asserts the metric tables are complete
// and finite, that no op failed, and that the selection digest is a
// function of the seed.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	const rounds = 2
	for _, name := range workloadNames {
		run := func(seed uint64) *outcome {
			oc, err := runWorkload(name, seed, time.Second, rounds, smokeSize, out)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if oc.failed != 0 || oc.attempted == 0 {
				t.Fatalf("%s seed %d: attempted %d, failed %d: %v", name, seed, oc.attempted, oc.failed, oc.firstErr)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), latencies...) {
				if v, ok := oc.e2e[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v (present %v)", name, d.name, v, ok)
				}
			}
			return oc
		}
		a, b, c := run(1), run(1), run(2)
		if a.digest != b.digest || a.attempted != b.attempted {
			t.Errorf("%s: same seed, different runs: digest %x/%x, attempted %d/%d", name, a.digest, b.digest, a.attempted, b.attempted)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 1 and 2 gave the same selection digest %x", name, a.digest)
		}

		oc, err := tracedRun(name, 1, time.Second, rounds, smokeSize, out)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if oc.failed != 0 {
			t.Errorf("%s traced: %d failed ops: %v", name, oc.failed, oc.firstErr)
		}
		for _, d := range perLayer {
			if v, ok := oc.layers[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s traced: per-layer metric %s = %v (present %v)", name, d.name, v, ok)
			}
		}
		if cov := oc.layers["trace.coverage"]; cov <= 0 {
			t.Errorf("%s traced: coverage %v", name, cov)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the tables
// the harness prints in step: same workloads, same metric names and
// units, in the same order.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, file []metric, harness []metricDef) {
		if len(file) != len(harness) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(file), kind, len(harness))
		}
		for i, m := range file {
			if m.Name != harness[i].name || m.Unit != harness[i].unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness",
					kind, i, m.Name, m.Unit, harness[i].name, harness[i].unit)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	same("per-layer", doc.PerLayer, perLayer)
}
