// Command bench is the repository's benchmark: four closed-loop
// workloads, each on one connection and one core, over fixed
// seed-generated op sequences. It hosts the cloud in-process behind a
// real loopback TCP listener, drives it through the public edge.Client
// and emap.Session surfaces, checks every reply, and prints every
// metric by name and unit. See README.md in this directory.
//
//	bash bench/run.sh                                  one full set (all workloads)
//	bash bench/run.sh --workload recall-scan --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --trace 1                        traced runs: the per-layer table
//	bash bench/run.sh --repeat 2 [--interleave]        two sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workloadNames is the order a full set runs in.
var workloadNames = []string{"recall-scan", "recall-repeat", "ingest-mixed", "monitor"}

var workloads = map[string]func() workload{
	"recall-scan":   func() workload { return &recall{} },
	"recall-repeat": func() workload { return &recall{repeat: true} },
	"ingest-mixed":  func() workload { return &ingest{} },
	"monitor":       func() workload { return &monitor{} },
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd is the gated end-to-end metric set, the same for every
// workload: the end_to_end list of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "kB"},
	{"heap_mb", "MB"},
}

// latencies are the two end-to-end latency percentiles. They could not
// hold a bound of 10 % on the box this was written on even in its quiet
// hours, and in a slow one recall-repeat's spread 18 % and 20 % over ten
// seeds (README, "Bounds"), so they are informational: every run prints them, the traced run
// reports them at the head of the per-layer table, no bound applies.
var latencies = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	repeat     int
	runs       int
	interleave bool
	rounds     int
	out        string
}

func main() {
	// One scheduler thread, set before any emap package runs: every
	// figure is per core, GC cost lands in wall time, and nothing
	// depends on what the box's other CPUs are doing.
	runtime.GOMAXPROCS(1)

	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: one full set, each workload in its own process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 25, "timed phase length; whole rounds run until it is spent")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run — spans, layer replay and the per-layer table instead of the end-to-end metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run N full sets and compare their medians against the bounds in BENCHMARK.json")
	flag.IntVar(&o.runs, "runs", 1, "with -repeat: runs per workload per set, each on another seed")
	flag.BoolVar(&o.interleave, "interleave", false, "with -repeat: order runs by workload (set 1, set 2, … of one workload, then the next)")
	flag.IntVar(&o.rounds, "rounds", 0, "run exactly this many rounds instead of a time budget (counts then repeat exactly)")
	flag.StringVar(&o.out, "out", defaultOut(), "directory for scratch files and trace output")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case o.repeat > 0:
		err = repeatSets(o)
	case o.workload == "":
		err = fullSet(o)
	default:
		err = single(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOut keeps scratch files under the benchmark's own directory
// whether the command runs from the repository root or from bench/.
func defaultOut() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "bench/out"
	}
	return "out"
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// single runs one workload in this process and prints its metrics and
// the result line.
func single(o options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	// A fixed spin first, so set-up and the timed phase start on a
	// clocked-up, scheduled-in process; setup_s starts when it ends.
	spin(500 * time.Millisecond)
	budget := time.Duration(o.seconds) * time.Second
	var oc *outcome
	var err error
	if o.trace == 1 {
		oc, err = tracedRun(o.workload, o.seed, budget, o.rounds, fullSize, o.out)
	} else {
		oc, err = runWorkload(o.workload, o.seed, budget, o.rounds, fullSize, o.out)
	}
	if err != nil {
		return err
	}
	if cov := oc.layers["trace.coverage"]; o.trace == 1 && (cov < 0.8 || cov > 1.2) {
		// The layer replay no longer accounts for the op it replays:
		// the per-layer table cannot be trusted, so the run fails.
		oc.failed++
		if oc.firstErr == nil {
			oc.firstErr = fmt.Errorf("trace.coverage %.3f outside 0.8–1.2", cov)
		}
	}
	res := result{
		Correct:   oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Printf("workload %s seed %d: %d rounds, %d timed ops in %.2f s, set-ups %.3f s\n",
		oc.workload, oc.seed, oc.rounds, oc.samples, oc.timed.Seconds(), oc.setups)
	if o.trace == 1 {
		for _, d := range perLayer {
			v := oc.layers[d.name]
			fmt.Printf("  %-32s %14.4f %s\n", d.name, v, d.unit)
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
	} else {
		for _, d := range endToEnd {
			v := oc.e2e[d.name]
			note := fmt.Sprintf("n=%d ops", oc.samples)
			if d.name == "setup_s" {
				note = fmt.Sprintf("median of %d set-ups", len(oc.setups))
			} else if all, ok := oc.plain[d.name]; ok {
				note = fmt.Sprintf("quiet eighth of %d rounds, n=%d ops; over all %d ops: %.4f", oc.rounds, oc.pooled, oc.samples, all)
			}
			fmt.Printf("  %-32s %14.4f %-6s (%s)\n", d.name, v, d.unit, note)
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
		for _, d := range latencies {
			fmt.Printf("  %-32s %14.4f %-6s (informational; quiet eighth, n=%d ops; over all %d ops: %.4f)\n",
				d.name, oc.e2e[d.name], d.unit, oc.pooled, oc.samples, oc.plain[d.name])
		}
	}
	fmt.Printf("  ops attempted %d, succeeded %d, failed %d\n", oc.attempted, oc.attempted-oc.failed, oc.failed)
	if oc.firstErr != nil {
		fmt.Printf("  first failure: %v\n", oc.firstErr)
	}
	fmt.Printf("  selection digest %016x after %d rounds\n", uint64(oc.digest), oc.rounds)
	if err := writeRounds(o.out, oc); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// roundLog is what a run leaves in the output directory about its
// rounds: the cumulative selection digest after each, so two runs that
// got different distances down the sequence can be compared on their
// common prefix, and each round's wall and CPU time, so the quiet
// selection can be studied after the fact.
type roundLog struct {
	// Latencies are the run's informational latency percentiles, which
	// the result line may not carry.
	Latencies map[string]float64 `json:"latencies"`
	Digests   []string           `json:"digests"`
	WallMS    []float64          `json:"wall_ms"`
	CPUMS     []float64          `json:"cpu_ms"`
}

func writeRounds(outDir string, oc *outcome) error {
	log := roundLog{Latencies: map[string]float64{}}
	for _, d := range latencies {
		log.Latencies[d.name] = oc.e2e[d.name]
	}
	for _, d := range oc.roundDig {
		log.Digests = append(log.Digests, fmt.Sprintf("%016x", uint64(d)))
	}
	for _, r := range oc.readings {
		log.WallMS = append(log.WallMS, r.wall)
		log.CPUMS = append(log.CPUMS, r.cpu)
	}
	data, err := json.Marshal(log)
	if err != nil {
		return err
	}
	return os.WriteFile(roundsPath(outDir, oc.workload, oc.seed), data, 0o644)
}
