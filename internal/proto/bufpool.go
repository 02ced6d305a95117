package proto

import (
	"math/bits"
	"sync"
	"unsafe"
	"weak"
)

// Reply payloads — a correlation set runs from a few kB to a few
// hundred, sent and received once per upload — are drawn from a small
// pool instead of being allocated and dropped per request. Pool buffers
// have power-of-two capacities between minPooledBuf and maxPooledBuf and
// a request is served by the smallest free buffer that holds it. The
// pool is bounded in the strongest sense: it has poolSlots slots, and it
// holds its free buffers by weak pointer only, so it never keeps alive a
// byte the collector could otherwise reclaim — a free buffer lasts until
// the next collection, which at a reply's worth of garbage per request
// is hundreds of requests away, and an idle process's pool costs
// nothing. A request below the smallest size is an ordinary allocation
// (cheaper than the bookkeeping); one above the largest — a hostile
// 16 MiB frame — is allocated, used and never entered.
//
// Ownership is single and explicit: whoever holds a buffer from
// GetBuffer either hands it to exactly one next owner or releases it
// with PutBuffer exactly once, and never touches it afterwards. An
// owner that cannot tell whether it is the last one (an abandoned
// waiter, a caller outside this tree) simply drops the buffer; the
// collector is always a correct release.
const (
	minPooledBuf = 4 << 10
	maxPooledBuf = 512 << 10 // holds a top-100 set with 8 s continuations (412 kB)
	poolSlots    = 8
)

// freeBuf is one released buffer: its backing array, weakly, and the
// capacity to rebuild the slice with (0 marks an empty slot).
type freeBuf struct {
	array weak.Pointer[byte]
	cap   int
}

var bufPool struct {
	mu   sync.Mutex
	free [poolSlots]freeBuf
}

// GetBuffer returns a buffer of length n whose contents are arbitrary.
// The caller owns it; see PutBuffer.
func GetBuffer(n int) []byte {
	if n < minPooledBuf || n > maxPooledBuf {
		return make([]byte, n)
	}
	p := &bufPool
	p.mu.Lock()
	for {
		best := -1
		for i := range p.free {
			if c := p.free[i].cap; c >= n && (best < 0 || c < p.free[best].cap) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		f := p.free[best]
		p.free[best] = freeBuf{}
		if array := f.array.Value(); array != nil {
			p.mu.Unlock()
			return unsafe.Slice(array, f.cap)[:n]
		}
		// The collector got there first; try the next best.
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<bits.Len(uint(n-1)))
}

// PutBuffer releases a buffer its caller owns outright and will not
// touch again. Only slices whose capacity is exactly one of the pool's
// sizes are entered: anything else — a payload some encoder allocated at
// its exact size, a buffer above the largest size, a sub-slice — is
// ignored, so handing PutBuffer every payload one is done with is
// always safe. With every slot taken the smallest entry makes room (a
// larger buffer can stand in for a smaller one, not the reverse).
func PutBuffer(b []byte) {
	c := cap(b)
	if c < minPooledBuf || c > maxPooledBuf || c&(c-1) != 0 {
		return
	}
	p := &bufPool
	p.mu.Lock()
	slot := 0
	for i := range p.free {
		if p.free[i].cap < p.free[slot].cap {
			slot = i
		}
	}
	if p.free[slot].cap <= c {
		p.free[slot] = freeBuf{array: weak.Make(unsafe.SliceData(b)), cap: c}
	}
	p.mu.Unlock()
}
