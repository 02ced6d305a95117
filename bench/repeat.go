package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// child runs one workload in its own process — the driver's exact
// invocation — echoes its report, and returns its result line.
func child(o options, workload string, seed uint64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(o.seconds),
		"--trace", strconv.Itoa(o.trace),
		"--rounds", strconv.Itoa(o.rounds),
		"--out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	runErr := cmd.Run() // Run waits for the child to exit
	took := time.Since(start)
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	fmt.Printf("  process ran %.1f s\n", took.Seconds())
	if runErr != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	return &res, nil
}

// fullSet runs every workload once, each in its own process.
func fullSet(o options) error {
	failed := false
	for _, w := range workloadNames {
		res, err := child(o, w, o.seed)
		if err != nil {
			return err
		}
		failed = failed || !res.Correct
	}
	if failed {
		return errors.New("failed operations (see above)")
	}
	return nil
}

func roundsPath(outDir, workload string, seed uint64) string {
	return filepath.Join(outDir, fmt.Sprintf("rounds-%s-%d.json", workload, seed))
}

// bounds reads the per-metric regression bounds out of BENCHMARK.json.
func bounds() (map[string]float64, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bound := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bound[m.Name] = m.Bound
	}
	return bound, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 {
		p := float64(i) * float64(n+1) / 4
		j := int(math.Floor(p))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		g := p - float64(j)
		return (1-g)*s[j-1] + g*s[j]
	}
	return at(1), at(3)
}

// repeatSets runs o.repeat full sets of o.runs runs per workload (run j
// on seed+j, the same seeds in every set) and holds them against the
// bounds in BENCHMARK.json: no two sets' medians may differ by more than
// the metric's bound (in either direction), no set's interquartile
// spread may exceed it, runs of one workload and seed must print the
// same selection digest on their common prefix of rounds, and no op may
// fail.
func repeatSets(o options) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	values := map[string]map[string][][]float64{} // workload → metric → [set][run]
	for _, w := range workloadNames {
		values[w] = map[string][][]float64{}
	}
	digests := map[string][]string{}
	var breaches []string

	run := func(set int, w string) error {
		for j := 0; j < o.runs; j++ {
			seed := o.seed + uint64(j)
			fmt.Printf("--- set %d, %s, seed %d\n", set+1, w, seed)
			res, err := child(o, w, seed)
			if err != nil {
				return err
			}
			if !res.Correct {
				breaches = append(breaches, fmt.Sprintf("%s seed %d set %d: %d failed ops", w, seed, set+1, res.Failed))
			}
			var log roundLog
			if data, err := os.ReadFile(roundsPath(o.out, w, seed)); err == nil {
				_ = json.Unmarshal(data, &log)
			}
			got := log.Digests
			for name, v := range log.Latencies {
				res.Metrics[name] = metricValue{Value: v}
			}
			for name, mv := range res.Metrics {
				for len(values[w][name]) <= set {
					values[w][name] = append(values[w][name], nil)
				}
				values[w][name][set] = append(values[w][name][set], mv.Value)
			}
			id := fmt.Sprintf("%s/%d", w, seed)
			if first, ok := digests[id]; !ok {
				digests[id] = got
			} else if n := min(len(first), len(got)); n == 0 || first[n-1] != got[n-1] {
				breaches = append(breaches, fmt.Sprintf("%s seed %d: selection digest differs between sets after %d rounds", w, seed, n))
			}
		}
		return nil
	}
	if o.interleave {
		for _, w := range workloadNames {
			for set := 0; set < o.repeat; set++ {
				if err := run(set, w); err != nil {
					return err
				}
			}
		}
	} else {
		for set := 0; set < o.repeat; set++ {
			for _, w := range workloadNames {
				if err := run(set, w); err != nil {
					return err
				}
			}
		}
	}

	fmt.Printf("\n%-14s %-16s %12s %25s %8s %8s %7s\n", "workload", "metric", "median", "min–max", "spread", "gap", "bound")
	for _, w := range workloadNames {
		for _, d := range append(append([]metricDef(nil), endToEnd...), latencies...) {
			sets := values[w][d.name]
			var all, medians []float64
			for _, s := range sets {
				all = append(all, s...)
				medians = append(medians, median(s))
			}
			if len(all) == 0 {
				continue
			}
			s := sortedCopy(all)
			// gap: the widest disagreement between two sets' medians,
			// relative to the smaller of the two — whichever set ran
			// first, and whichever direction is the worse one.
			gap := 0.0
			for i, a := range medians {
				for _, b := range medians[i+1:] {
					gap = math.Max(gap, math.Abs(a-b)/math.Min(a, b))
				}
			}
			// spread: interquartile distance over the median, within
			// one set (the widest set), as the acceptance check takes it.
			spread := math.NaN()
			for _, set := range sets {
				if len(set) >= 4 {
					q1, q3 := quartiles(set)
					sp := (q3 - q1) / median(set)
					if math.IsNaN(spread) || sp > spread {
						spread = sp
					}
				}
			}
			limit, gated := bound[d.name]
			status, shown := "", "   info"
			if gated {
				shown = fmt.Sprintf("%6.0f%%", 100*limit)
				if gap > limit {
					status = "  GAP BREACH"
					breaches = append(breaches, fmt.Sprintf("%s/%s: set medians differ by %.2f %% (bound %.0f %%)", w, d.name, 100*gap, 100*limit))
				}
				if d.name != "setup_s" && spread > limit {
					status += "  SPREAD BREACH"
					breaches = append(breaches, fmt.Sprintf("%s/%s: spread %.2f %% (bound %.0f %%)", w, d.name, 100*spread, 100*limit))
				}
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f–%-12.4f %7.2f%% %7.2f%% %s%s\n",
				w, d.name, median(all), s[0], s[len(s)-1], 100*spread, 100*gap, shown, status)
		}
	}
	// The raw values, for the ledger (baseline.json is a copy of one).
	ledger := struct {
		Env       map[string]string                 `json:"env"`
		Seconds   int                               `json:"run_seconds"`
		Seeds     []uint64                          `json:"seeds"`
		Sets      int                               `json:"sets"`
		Workloads map[string]map[string][][]float64 `json:"workloads"`
	}{Env: environment(), Seconds: o.seconds, Sets: o.repeat, Workloads: values}
	for j := 0; j < o.runs; j++ {
		ledger.Seeds = append(ledger.Seeds, o.seed+uint64(j))
	}
	if data, err := json.MarshalIndent(ledger, "", " "); err == nil {
		path := filepath.Join(o.out, "repeat.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Println("raw values written to", path)
	}
	if len(breaches) > 0 {
		return fmt.Errorf("%d breaches:\n  %s", len(breaches), strings.Join(breaches, "\n  "))
	}
	fmt.Println("every metric within its bound; selection digests agree; no failed ops")
	return nil
}

// environment names the box a ledger point was measured on.
func environment() map[string]string {
	env := map[string]string{
		"nproc": strconv.Itoa(runtime.NumCPU()),
		"go":    runtime.Version(),
		"os":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}
