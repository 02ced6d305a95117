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

// guardedWalk lays a pass of counts out in c — whose ends the caller has
// put against unmapped pages — with its prefix sums and the query each
// ending at the last byte before an unmapped page too, and walks it to
// the end on both routes, masked lanes (parked on a live lane's pass)
// included; lanes 0, 4 and 6 start at the pass's first count.
func guardedWalk(t *testing.T, label string, r *rng.Source, c []int16, n int) {
	t.Helper()
	rule := tabledRule(0.3, 0.05, 0.8, 0.86)
	segLen := len(c)
	q := guardedCounts(t, n)
	copy(q, randCounts(r, n))
	copy(c, randCounts(r, segLen))
	sums := unsafe.Slice((*[2]float64)(unsafe.Pointer(&guarded(t, 16*(segLen+1))[0])), segLen+1)
	Widen(sums, c)
	var w Walk
	w.ResetQ(q, rule)
	for lane := 0; lane < 2*Lanes; lane++ {
		if lane == 2 || lane == 7 {
			continue // masked from the start
		}
		start := 17 * lane % 34
		w.SeatQ(lane, c[start:], sums[start:], segLen-n-start)
	}
	if _, evals := driveBothQ(t, label, &w, func(int) bool { return false }); evals < 6 {
		t.Fatalf("%s: %d evaluations", label, evals)
	}
	if got, want := DotQ(q, c[segLen-n:]), dotqPortable(q, c[segLen-n:]); got != want {
		t.Fatalf("%s: DotQ = %d, portable %d", label, got, want)
	}
}

func asCounts(mem []byte) []int16 {
	return unsafe.Slice((*int16)(unsafe.Pointer(&mem[0])), len(mem)/2)
}

func guardedCounts(t *testing.T, n int) []int16 { return asCounts(guarded(t, 2*n)) }

// TestStepReadsNothingPastItsPasses: the walk reads a record's counts
// where they are — a memory-mapped snapshot file among them — and the
// vector step reads them through raw pointers, so the passes are laid
// out where a stray read is fatal: every lane's last count
// c[maxOff+n−1], its last prefix sum sums[maxOff+n] and the query's last
// element are each the last thing before an unmapped page. Walked to the
// end on both routes at lengths with and without whole blocks and
// leftovers, past a flush. (TestStepQReadsNothingPastItsPasses guards the
// other end.)
func TestStepReadsNothingPastItsPasses(t *testing.T) {
	// A fault becomes a panic naming the address, not a bare crash.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	r := rng.New(37)
	for _, n := range append([]int{2048 + 7}, stepLengths...) {
		guardedWalk(t, fmt.Sprintf("against the page after, n=%d", n), r, guardedCounts(t, n+300), n)
	}
}

// TestStepQReadsNothingPastItsPasses: the counts are a whole page fenced
// by unmapped pages on both sides, with the lanes' windows starting at
// its first byte — the vector dot reads a window's leftover counts
// through a block that ends at the window's end, which must not begin
// before the window does.
func TestStepQReadsNothingPastItsPasses(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	r := rng.New(59)
	page := syscall.Getpagesize()
	for _, n := range append([]int{2048 + 7}, stepLengths...) {
		segLen := n + 300
		front := asCounts(fenced(t, (2*segLen+page-1)/page*page))[:segLen]
		guardedWalk(t, fmt.Sprintf("from the page before, n=%d", n), r, front, n)
	}
}
