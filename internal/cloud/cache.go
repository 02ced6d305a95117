package cloud

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
)

// corrCache is a bounded LRU of correlation sets as selections over the
// tenant's store (see selection) — ≈ 50 bytes per match, not the samples
// — keyed by a quantized fingerprint of the uploaded window. A hit is
// answered by encoding the cached selection into the request's own reply
// buffer, exactly as a miss encodes the one its batch built (see
// Engine.serveUpload); a selection is immutable, so every concurrent hit
// shares it. In the tracking-loop steady state (paper §V: one upload
// every fifth iteration) consecutive uploads from a stable signal are
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
	key string
	sel *selection
}

func newCorrCache(capacity int) *corrCache {
	return &corrCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached selection for key, refreshing its recency, plus
// the cache generation for a later putAt. The key is looked up in place
// (no string is built for it).
func (c *corrCache) get(key []byte) (*selection, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[string(key)]
	if !ok {
		return nil, c.gen, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).sel, c.gen, true
}

// putAt stores a selection under key — unless the cache has been reset
// since generation gen was observed, in which case it was computed
// against a stale store epoch and is dropped. Evicts the least recently
// used entry past capacity.
func (c *corrCache) putAt(gen int64, key string, sel *selection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).sel = sel
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, sel: sel})
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
// fingerprintSteps buckets, and pack. The µV window is never
// materialised: its mean, its centred norm and the buckets are three
// passes over the counts, each forming a sample as float64(c)·scale
// rounded on its own — the explicit conversion keeps a platform with a
// fused multiply-add from folding the product into the subtraction that
// follows, so every host computes the key the window's floats would
// give. With a fingerprintWindow-sized array behind key a lookup — the
// whole cost of a cache hit before the reply is encoded — allocates
// nothing. The result is false for flat windows, which the search
// answers with an empty set anyway.
func appendFingerprint(key []byte, counts []int16, scale float32) ([]byte, bool) {
	if len(counts) == 0 {
		return key, false
	}
	s := float64(scale)
	var sum float64
	for _, c := range counts {
		sum += float64(float64(c) * s)
	}
	mu := sum / float64(len(counts))
	var norm float64
	for _, c := range counts {
		d := float64(float64(c)*s) - mu
		norm += d * d
	}
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		return key, false
	}
	inv := 1 / norm
	steps := fingerprintSteps * math.Sqrt(float64(len(counts)))
	for _, c := range counts {
		z := (float64(float64(c)*s) - mu) * inv
		q := math.Round(z * steps)
		if q > math.MaxInt16 {
			q = math.MaxInt16
		} else if q < math.MinInt16 {
			q = math.MinInt16
		}
		key = binary.LittleEndian.AppendUint16(key, uint16(int16(q)))
	}
	return key, true
}
