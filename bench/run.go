package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// opTimeout bounds one operation; an op that exceeds it counts as
// failed.
const opTimeout = 5 * time.Second

// sizing holds every count that defines how big the workloads are.
// fullSize is the benchmark; smokeSize is the same code paths at about
// a fiftieth of the ops, for the smoke test.
type sizing struct {
	// setupReps is how many times a run sets the workload up; setup_s
	// is the median, and the last set-up serves the timed phase.
	setupReps int
	// corpusArchetypes and corpusInstances size the training
	// population (Generator.TrainingRecordings) every store is built
	// from; corpusRecordings > 0 keeps only its first recordings.
	corpusArchetypes, corpusInstances, corpusRecordings int
	// workingSet is recall-repeat's cycle (it fits the 256-entry
	// correlation-set cache); repeatCycles passes over it make one
	// round.
	workingSet, repeatCycles int
	// ingestsPerTenant acknowledged ingests make one ingest-mixed
	// round: one patient tenant from empty to full, because the ingest
	// cost grows with the tenant's store and only whole tenants repeat
	// the same mix. Every tenant receives the same ingestsPerTenant
	// chunks, preprocessed in set-up, in the seed's order under its own
	// record IDs. A fresh-window Search of the tenant follows every
	// readEvery-th ingest: ingestsPerTenant/readEvery reads, one per
	// cell of the design.
	ingestsPerTenant, readEvery int
	// sessionWindows one-second windows make one monitoring session,
	// and one session is one monitor round.
	sessionWindows int
	// probeRecords is how many records the write-path probes insert,
	// probeQueries how many distinct windows the search probes time.
	probeRecords, probeQueries int
}

var fullSize = sizing{
	setupReps:        3,
	corpusArchetypes: 3, corpusInstances: 2,
	workingSet: 16, repeatCycles: 64,
	ingestsPerTenant: 1200, readEvery: 100,
	sessionWindows: 40,
	probeRecords:   1100, probeQueries: 12,
}

var smokeSize = sizing{
	setupReps:        1,
	corpusArchetypes: 1, corpusInstances: 1, corpusRecordings: 3,
	workingSet: 4, repeatCycles: 2,
	ingestsPerTenant: 20, readEvery: 10,
	sessionWindows: 8,
	probeRecords:   120, probeQueries: 8,
}

// env is what a set-up is given: the run's input design, a scratch
// directory inside the checkout, and the sizing.
type env struct {
	*design
	dir string
	sizing
}

// workload is one closed loop on one connection over a fixed,
// seed-generated op sequence. The sequence is a repeating cycle of
// shapes() rounds: round r has shape r mod shapes(), and every round of
// one shape executes the same ops on fresh inputs, so the rounds of a
// shape differ only in what the box did to them.
type workload interface {
	// setup is everything between the warm-up spin and the first
	// timed op: store build/load, server start, dial, cache warm-up.
	setup(e env) error
	// shapes is the length of the cycle of round shapes.
	shapes() int
	// prepare generates round r's inputs from the seed; it runs
	// between rounds, outside every timed delta.
	prepare(r int)
	// round executes round r's ops through rc.
	round(r int, rc *recorder)
	// settle runs after every round, untimed: it re-checks the round's
	// sampled replies and drops them, so nothing the harness keeps
	// grows with the number of rounds completed.
	settle(rc *recorder)
	// verify makes the end-of-run checks (untimed) and reports losses
	// as failed ops.
	verify(rc *recorder)
	// live adds this workload's live per-layer counters to out.
	live(out layerTable)
	// teardown stops every goroutine and connection the set-up
	// started and removes its files.
	teardown()
}

// latCap preallocates the latency log, so its size does not depend on
// how many ops a run completed (the fastest workload makes ≈ 100 000).
const latCap = 1 << 18

// recorder collects what the ops of one run produced.
type recorder struct {
	lat       []float64 // ms, one per timed op
	attempted int
	failed    int
	firstErr  error
	dig       digest
	roundDig  []digest // cumulative digest after each completed round
	// side holds informational latency populations that are not ops
	// (the reads beside the writes of ingest-mixed).
	side []float64
	tr   *tracer // nil on the untraced run
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{lat: make([]float64, 0, latCap), dig: fnvOffset, tr: tr}
}

// fail records one failed op (err keeps the first cause for the
// report).
func (rc *recorder) fail(err error) {
	rc.failed++
	if rc.firstErr == nil {
		rc.firstErr = err
	}
}

// op times one operation and counts it; check failures count exactly
// like transport errors.
func (rc *recorder) op(fn func() error) time.Duration {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	rc.attempted++
	rc.lat = append(rc.lat, ms(d))
	if err == nil && d > opTimeout {
		err = errors.New("op exceeded the 5 s limit")
	}
	if err != nil {
		rc.fail(err)
	}
	return d
}

// reading is what one timed round cost; lat[from:to] are its ops.
type reading struct {
	wall, cpu float64 // ms
	from, to  int
}

// quiet returns the fastest eighth (at least one) of a shape's rounds
// by key. What else the box runs only ever slows a round down — a
// neighbour on the core's other hardware thread, a descheduled vCPU, a
// clock that leaves its turbo bin, a busy virtual disk — and it does so
// in bursts of milliseconds to minutes. Measured on this box over runs
// of forty identical 0.5 s rounds: the mean over all rounds moved by
// 11–22 % between runs of the same code, the median round by 7–23 %,
// the fastest quarter by 6–11 %, the fastest eighth by 5–9 %.
func quiet(rounds []reading, key func(reading) float64) []reading {
	s := append([]reading(nil), rounds...)
	sort.Slice(s, func(i, j int) bool { return key(s[i]) < key(s[j]) })
	return s[:(len(s)+7)/8]
}

// timing reduces the rounds of one run to the timed end-to-end
// metrics. Rounds are grouped by shape; each shape contributes the mean
// of its quiet rounds, and one cycle of shapes is the unit the rates
// are taken over. The latency percentiles pool the ops of the
// wall-quiet rounds.
func timing(rounds []reading, shapes int, lat []float64) (opsPerS, cpuPerOp, p50, p90 float64, pooled int) {
	var ops, wall, cpu float64
	var pool []float64
	for s := 0; s < shapes; s++ {
		var of []reading
		for r := s; r < len(rounds); r += shapes {
			of = append(of, rounds[r])
		}
		if len(of) == 0 {
			continue
		}
		ops += float64(of[0].to - of[0].from)
		byWall := quiet(of, func(r reading) float64 { return r.wall })
		for _, r := range byWall {
			wall += r.wall / float64(len(byWall))
			pool = append(pool, lat[r.from:r.to]...)
		}
		byCPU := quiet(of, func(r reading) float64 { return r.cpu })
		for _, r := range byCPU {
			cpu += r.cpu / float64(len(byCPU))
		}
	}
	sort.Float64s(pool)
	return 1000 * ops / wall, cpu / ops, quantile(pool, 0.50), quantile(pool, 0.90), len(pool)
}

// outcome is one finished run of one workload.
type outcome struct {
	workload  string
	seed      uint64
	rounds    int
	timed     time.Duration
	setups    []float64 // seconds, one per set-up repetition
	attempted int
	failed    int
	firstErr  error
	e2e       map[string]float64
	// plain holds the same timed figures taken over every round — no
	// quiet selection — printed beside the metrics.
	plain    map[string]float64
	layers   layerTable // traced runs only
	digest   digest
	roundDig []digest
	readings []reading // untraced runs only
	samples  int       // timed ops
	pooled   int       // ops behind the latency percentiles
}

// runWorkload performs one run: size.setupReps set-ups (the last one
// kept), whole cycles of rounds until the time budget is spent, the
// final heap reading, verification, teardown.
func runWorkload(name string, seed uint64, budget time.Duration, maxRounds int, size sizing, outDir string) (*outcome, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	out := &outcome{workload: name, seed: seed}
	d, err := newDesign(seed, size)
	if err != nil {
		return nil, err
	}
	var w workload
	for rep := 0; rep < size.setupReps; rep++ {
		dir := filepath.Join(outDir, fmt.Sprintf("work-%d-%s-%d", os.Getpid(), name, rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		w = mk()
		start := time.Now()
		err := w.setup(env{design: d, dir: dir, sizing: size})
		if err == nil {
			w.prepare(0)
		}
		out.setups = append(out.setups, time.Since(start).Seconds())
		if err != nil {
			w.teardown()
			os.RemoveAll(dir)
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		if rep < size.setupReps-1 {
			w.teardown()
			os.RemoveAll(dir)
		} else {
			defer os.RemoveAll(dir)
		}
	}
	defer w.teardown()

	rc := newRecorder(nil)
	var c cost
	var rounds []reading
	shapes := w.shapes()
	for r := 0; ; r++ {
		if r > 0 {
			w.prepare(r)
		}
		before := len(rc.lat)
		from := readUsage()
		w.round(r, rc)
		to := readUsage()
		c.add(from, to)
		rounds = append(rounds, reading{wall: ms(to.wall.Sub(from.wall)), cpu: ms(to.cpu - from.cpu), from: before, to: len(rc.lat)})
		rc.roundDig = append(rc.roundDig, rc.dig)
		w.settle(rc)
		out.rounds++
		if maxRounds > 0 && out.rounds >= maxRounds {
			break
		}
		// A run ends on a whole cycle, so every shape has as many
		// rounds as every other.
		if maxRounds <= 0 && c.wall >= budget && out.rounds%shapes == 0 {
			break
		}
	}
	heap := liveHeapMB()
	timedOps := len(rc.lat)
	w.verify(rc)

	out.timed = c.wall
	out.attempted, out.failed, out.firstErr = rc.attempted, rc.failed, rc.firstErr
	out.digest, out.roundDig, out.samples = rc.dig, rc.roundDig, timedOps
	if timedOps == 0 {
		return nil, fmt.Errorf("%s: no timed ops", name)
	}
	n := float64(timedOps)
	opsPerS, cpuPerOp, p50, p90, pooled := timing(rounds, shapes, rc.lat)
	out.pooled, out.readings = pooled, rounds
	out.e2e = map[string]float64{
		"setup_s":         median(out.setups),
		"ops_per_s":       opsPerS,
		"op_p50_ms":       p50,
		"op_p90_ms":       p90,
		"cpu_ms_per_op":   cpuPerOp,
		"allocs_per_op":   float64(c.mallocs) / n,
		"alloc_kb_per_op": float64(c.bytes) / 1024 / n,
		"heap_mb":         heap,
	}
	all := sortedCopy(rc.lat)
	out.plain = map[string]float64{
		"ops_per_s":     n / c.wall.Seconds(),
		"op_p50_ms":     quantile(all, 0.50),
		"op_p90_ms":     quantile(all, 0.90),
		"cpu_ms_per_op": ms(c.cpu) / n,
	}
	return out, nil
}
