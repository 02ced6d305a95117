package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// replayStride is how often the traced run replays an op's life layer
// by layer.
const replayStride = 8

// sampled reports whether the traced run replays op: one op in
// replayStride, with the stride's phase moving by one every period
// ops. A sequence that repeats with that period is then replayed at
// every position in turn. A fixed phase replays the same few: of
// recall-repeat's 16-window cycle only the two windows the seed's
// shuffle put first and ninth, and where those two retrieve short sets
// the fixed cost no replay reaches (≈ 13 µs of transport hand-offs)
// took trace.coverage from 0.95 to 0.76.
func sampled(op, period int) bool { return (op+op/period)%replayStride == 0 }

// span is one interval at a layer boundary. Spans of one op share its
// id; parent is the index of the span that caused this one (-1 for an
// op's root).
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the spans of a traced run in memory; they are written
// out when the run ends. The harness records spans around its own
// calls into each layer — nothing inside the program is instrumented.
type tracer struct {
	epoch time.Time
	spans []span
	// layer sums the replayed time per layer name.
	layer map[string]time.Duration
	count map[string]int
	// rounds holds, per traced round, the live latency of its replayed
	// ops and the layer time replayed for them.
	rounds []covered
}

// covered is one traced round's coverage account.
type covered struct{ live, replay time.Duration }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), layer: map[string]time.Duration{}, count: map[string]int{}}
}

// root records an op's live span and returns its index.
func (t *tracer) root(name string, op int, start time.Time, d time.Duration) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: -1,
		StartUS: us(start.Sub(t.epoch)), EndUS: us(start.Sub(t.epoch) + d)})
	return len(t.spans) - 1
}

// startRound opens a traced round's coverage account.
func (t *tracer) startRound() { t.rounds = append(t.rounds, covered{}) }

// replayed marks an op as one whose layers are replayed: its live
// latency d enters the round's coverage denominator.
func (t *tracer) replayed(d time.Duration) { t.rounds[len(t.rounds)-1].live += d }

// layerSpan times fn as layer name of op, a child of parent, and adds
// it to the layer's total.
func (t *tracer) layerSpan(name string, op, parent int, fn func()) {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		StartUS: us(start.Sub(t.epoch)), EndUS: us(start.Sub(t.epoch) + d)})
	t.layer[name] += d
	t.count[name]++
	t.rounds[len(t.rounds)-1].replay += d
}

// coverage is the replayed layer time over the live latency of the
// replayed ops, taken per traced round; the run's figure is the median
// round's. One round in which the disk answered the live eviction and
// its replay differently (10 ms against 25 ms happens) then moves one
// ratio, not the run's.
func (t *tracer) coverage() float64 {
	var ratios []float64
	for _, r := range t.rounds {
		if r.live > 0 {
			ratios = append(ratios, float64(r.replay)/float64(r.live))
		}
	}
	return median(ratios)
}

// liveMS is the summed live latency of the replayed ops.
func (t *tracer) liveMS() float64 {
	var sum time.Duration
	for _, r := range t.rounds {
		sum += r.live
	}
	return ms(sum)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerTotal is one replayed layer's count and summed time.
type layerTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// totals lists the replayed layers by name.
func (t *tracer) totals() []layerTotal {
	var out []layerTotal
	for name, d := range t.layer {
		out = append(out, layerTotal{name, t.count[name], ms(d)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and per-layer totals as JSON.
func (t *tracer) write(outDir, workload string) (string, error) {
	doc := struct {
		Workload string       `json:"workload"`
		LiveMS   float64      `json:"replayed_ops_live_ms"`
		Coverage float64      `json:"coverage"`
		Layers   []layerTotal `json:"layers"`
		Spans    []span       `json:"spans"`
	}{workload, t.liveMS(), t.coverage(), t.totals(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// layerTable is the per-layer metric table of a traced run.
type layerTable map[string]float64
