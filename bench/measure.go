package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// usage is one reading of the process-wide cost counters the
// end-to-end metrics are deltas of.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user+sys, getrusage(RUSAGE_SELF)
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// cost accumulates usage deltas over the timed rounds of a run; the
// input generation between rounds is outside every delta.
type cost struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func (c *cost) add(from, to usage) {
	c.wall += to.wall.Sub(from.wall)
	c.cpu += to.cpu - from.cpu
	c.mallocs += to.mallocs - from.mallocs
	c.bytes += to.bytes - from.bytes
}

// liveHeapMB forces a collection and returns what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// spin burns one core for d so the timed phases start on a clocked-up,
// scheduled-in process.
func spin(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x*x + 1)
		}
	}
	return x
}

// quantile returns the q-quantile of sorted (nearest-rank; sorted must
// be ascending and non-empty).
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is the running selection digest of a run: FNV-1a over the
// class/archetype/label (or decision) of every reply, in op order.
type digest uint64

const fnvOffset digest = 14695981039346656037

func (d *digest) add(v uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	*d = digest(h)
}
