package cloud

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"

	"emap/internal/dsp"
)

// corrCache is a bounded LRU of encoded correlation sets — the CorrSet
// wire payload itself, Seq zero, at exactly its size — keyed by a
// quantized fingerprint of the uploaded window. A hit is answered by
// copying the cached bytes into a reply buffer and patching the Seq
// (see Engine.serveUpload); the cached bytes are shared by every
// concurrent hit and are never written after putAt. In the
// tracking-loop steady state (paper §V: one upload every fifth
// iteration) consecutive uploads from a stable signal are
// near-identical; the fingerprint quantization folds them onto one key
// so the repeat skips the shard scan entirely.
//
// A cache is owned by exactly one tenant of one Server, so entries can
// never cross tenants' stores, search parameters or horizons — those
// are fixed per tenant. An ingest into the tenant's store resets the
// cache (see tenant.ingest): cached sets predate the new data.
type corrCache struct {
	mu  sync.Mutex
	cap int
	// gen counts resets. A search captures the generation before it
	// runs and stores its result only if no reset intervened —
	// otherwise a scan of a pre-ingest epoch could re-poison the
	// cache right after the ingest flushed it.
	gen   int64
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key     string
	payload []byte
}

func newCorrCache(capacity int) *corrCache {
	return &corrCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached encoded correlation set for key, refreshing
// its recency, plus the cache generation for a later putAt. The key is
// looked up in place (no string is built for it). The returned slice is
// shared and read-only.
func (c *corrCache) get(key []byte) ([]byte, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[string(key)]
	if !ok {
		return nil, c.gen, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, c.gen, true
}

// putAt stores an encoded correlation set under key — unless the cache
// has been reset since generation gen was observed, in which case it
// was computed against a stale store epoch and is dropped. Evicts the
// least recently used entry past capacity. The cache keeps payload
// itself: the caller must not write to it afterwards, and should pass
// it at exact capacity (proto.EncodeCorrSet's), since slack is held as
// long as the entry lives.
func (c *corrCache) putAt(gen int64, key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).payload = payload
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, payload: payload})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
	}
}

// len returns the number of cached correlation sets.
func (c *corrCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// reset drops every cached correlation set (the store grew; cached
// sets are stale) and invalidates in-flight putAt generations — the
// latter even when nothing is cached: a scan of the pre-ingest epoch
// may still be running. An ingest-only tenant resets an empty cache on
// every insert, so that case touches nothing else.
func (c *corrCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if c.ll.Len() == 0 {
		return
	}
	c.ll.Init()
	clear(c.byKey)
}

// fingerprintSteps is the quantization resolution of the cache key:
// each z-normalized sample is bucketed into steps of 1/fingerprintSteps
// of its natural O(1) range. Coarse enough that the residual int16
// wire-quantization noise of a re-uploaded identical window never
// splits the key, fine enough that windows from different signals
// collide with negligible probability (any of the ~256 samples
// falling in a different bucket separates the keys).
const fingerprintSteps = 32

// fingerprintWindow is the window length a lookup's stack scratch is
// sized for — one second at the default base rate, the upload the edge
// sends. A longer window spills to the heap through append and works
// the same.
const fingerprintWindow = 256

// appendFingerprint appends to key the cache key of the uploaded window
// counts·scale: z-normalize (amplitude invariance, matching what the
// search itself sees), scale each sample back to O(1) by √n, quantize to
// fingerprintSteps buckets, and pack. z is working memory for the µV
// window. With fingerprintWindow-sized arrays behind key and z a lookup
// — the whole cost of a cache hit before the reply is copied —
// allocates nothing. The result is false for flat windows, which the
// search answers with an empty set anyway.
func appendFingerprint(key []byte, z []float64, counts []int16, scale float32) ([]byte, bool) {
	s := float64(scale)
	for _, v := range counts {
		z = append(z, float64(v)*s) // proto.Dequantize, into scratch
	}
	return appendWindowKey(key, z)
}

// appendWindowKey is appendFingerprint's second half, from the µV
// window, which it normalizes in place.
func appendWindowKey(key []byte, window []float64) ([]byte, bool) {
	if dsp.ZNormalizeTo(window, window) == 0 {
		return key, false
	}
	scale := fingerprintSteps * math.Sqrt(float64(len(window)))
	for _, v := range window {
		q := math.Round(v * scale)
		if q > math.MaxInt16 {
			q = math.MaxInt16
		} else if q < math.MinInt16 {
			q = math.MinInt16
		}
		key = binary.LittleEndian.AppendUint16(key, uint16(int16(q)))
	}
	return key, true
}
