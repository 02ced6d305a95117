package proto

import (
	"math/bits"
	"sync"
)

// Reply payloads — a correlation set runs from a few kB to a few
// hundred, sent and received once per upload — are drawn from a small
// pool instead of being allocated and dropped per request. Pool buffers
// have power-of-two capacities between minPooledBuf and maxPooledBuf and
// a request is served by the smallest free buffer that holds it. The
// pool is bounded by construction: it has poolSlots slots, so it never
// holds more than poolSlots × maxPooledBuf = 4 MiB and in practice about
// one — the handful of buffers a connection's hops have in flight — and
// it holds them outright, so how often a released buffer is found again
// does not depend on how often the collector runs (which is a function
// of the live heap: a process with a small store collects often). A
// request below the smallest size is an ordinary allocation (cheaper
// than the bookkeeping); one above the largest — a hostile 16 MiB
// frame — is allocated, used and never entered.
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

var bufPool struct {
	mu   sync.Mutex
	free [poolSlots][]byte // released buffers at full capacity; nil marks an empty slot
}

// GetBuffer returns a buffer of length n whose contents are arbitrary.
// The caller owns it; see PutBuffer.
func GetBuffer(n int) []byte {
	if n < minPooledBuf || n > maxPooledBuf {
		return make([]byte, n)
	}
	p := &bufPool
	p.mu.Lock()
	best := -1
	for i, f := range p.free {
		if cap(f) >= n && (best < 0 || cap(f) < cap(p.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := p.free[best]
		p.free[best] = nil
		p.mu.Unlock()
		return b[:n]
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
	for i, f := range p.free {
		if cap(f) < cap(p.free[slot]) {
			slot = i
		}
	}
	if cap(p.free[slot]) <= c {
		p.free[slot] = b[:c]
	}
	p.mu.Unlock()
}
