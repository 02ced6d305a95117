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

// fenced returns size bytes of zeroed memory with an inaccessible page
// either side: the first byte is the first of a page, and when size is a
// whole number of pages the last is the last of one.
func fenced(t *testing.T, size int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	span := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if syscall.Mprotect(mem[:page], syscall.PROT_NONE) != nil || syscall.Mprotect(mem[page+span:], syscall.PROT_NONE) != nil {
		t.Skip("mprotect failed")
	}
	return mem[page : page+size : page+size]
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

// TestStepQReadsNothingPastItsPasses: a walk over counts reads a
// record's counts where they are — a memory-mapped snapshot file among
// them — so the routes must touch nothing outside a pass. The counts are
// laid out twice: ending at the last byte before an unmapped page (every
// lane's last window, the prefix sums and the query likewise), and as a
// whole page of counts fenced by unmapped pages on both sides with the
// lanes' windows starting at its first byte — the vector dot reads a
// window's leftover counts through a block that ends at the window's
// end, which must not begin before the window does. Both walked to the
// end on both routes at lengths with and without whole blocks and
// leftovers, past a flush, masked lanes (parked on a live lane's pass)
// included.
func TestStepQReadsNothingPastItsPasses(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	r := rng.New(59)
	rule := tabledRule(0.3, 0.05, 0.8, 0.86)
	counts := func(mem []byte) []int16 {
		return unsafe.Slice((*int16)(unsafe.Pointer(&mem[0])), len(mem)/2)
	}
	page := syscall.Getpagesize()
	for _, n := range append([]int{2048 + 7}, stepLengths...) {
		segLen := n + 300
		back := counts(guarded(t, 2*segLen))
		front := counts(fenced(t, (2*segLen+page-1)/page*page))[:segLen]
		q := counts(guarded(t, 2*n))
		copy(q, randCounts(r, n))
		for name, c := range map[string][]int16{"against the page after": back, "from the page before": front} {
			copy(c, randCounts(r, segLen))
			sums := unsafe.Slice((*[2]float64)(unsafe.Pointer(&guarded(t, 16*(segLen+1))[0])), segLen+1)
			Widen(sums, c)
			var w Walk
			w.ResetQ(q, rule)
			for lane := 0; lane < 2*Lanes; lane++ {
				if lane == 2 || lane == 7 {
					continue // masked from the start
				}
				start := 17 * lane % 34 // lanes 0, 4 and 6 start at the pass's first count
				w.SeatQ(lane, c[start:], sums[start:], segLen-n-start)
			}
			if _, evals := driveBothQ(t, fmt.Sprintf("guarded n=%d %s", n, name), &w, func(int) bool { return false }); evals < 6 {
				t.Fatalf("n=%d: %d evaluations", n, evals)
			}
			if got, want := DotQ(q, c[segLen-n:]), dotqPortable(q, c[segLen-n:]); got != want {
				t.Fatalf("n=%d %s: DotQ = %d, portable %d", n, name, got, want)
			}
		}
	}
}
