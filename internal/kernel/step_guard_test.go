//go:build unix

package kernel

import (
	"fmt"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"emap/internal/rng"
)

// guarded returns size bytes of zeroed memory whose last byte is the
// last byte before an inaccessible page: a read one byte past the slice
// faults.
func guarded(t *testing.T, size int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	span := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem[span-size : span : span]
}

func guardedFloats(t *testing.T, n int) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(&guarded(t, 8*n)[0])), n)
}

// TestStepReadsNothingPastItsPasses: the vector step reads the lanes'
// passes through raw pointers, so the passes are laid out where a stray
// read is fatal — every lane's last sample x[maxOff+n−1], its last prefix
// sum sums[maxOff+n] and the query's last element are each the last
// thing before an unmapped page — and walked to the end on both routes,
// at window lengths with and without full blocks and tails, masked
// lanes (parked on a live lane's pass) included.
func TestStepReadsNothingPastItsPasses(t *testing.T) {
	// A fault becomes a panic naming the address, not a bare crash.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	r := rng.New(37)
	rule := tabledRule(0.3, 0.05, 0.8, 0.86)
	for _, n := range stepLengths {
		segLen := n + 300
		x, q := guardedFloats(t, segLen), guardedFloats(t, n)
		copy(x, randVec(r, segLen))
		copy(q, randVec(r, n))
		sums := unsafe.Slice((*[2]float64)(unsafe.Pointer(&guarded(t, 16*(segLen+1))[0])), segLen+1)
		copy(sums, prefixSums(x))
		var w Walk
		w.Reset(q, rule)
		for lane := 0; lane < 2*Lanes; lane++ {
			if lane == 2 || lane == 7 {
				continue // masked from the start
			}
			start := 17 * lane
			w.Seat(lane, x[start:], sums[start:], 1, segLen-n-start)
		}
		if _, evals := driveBoth(t, fmt.Sprintf("guarded n=%d", n), &w, func(int) bool { return false }); evals < 6 {
			t.Fatalf("n=%d: %d evaluations", n, evals)
		}
	}
}
