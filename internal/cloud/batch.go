package cloud

import (
	"fmt"
	"time"

	"emap/internal/search"
)

// pending is one upload waiting for a batch search pass. The
// dispatching request goroutine blocks on its group's done channel;
// the batch leader fills sel (or err) for every member before closing
// it.
type pending struct {
	// window is the upload's counts and step as they arrived: the search
	// reads records that have counts against them as sent.
	window search.Counts
	key    string // cache fingerprint, "" when uncacheable or caching is off
	// gen is the tenant cache generation observed at lookup time; the
	// result is cached only if no ingest reset the cache in between.
	gen int64
	// sel is the correlation set, shared with the cache and with every
	// pending the batch deduplicated onto the same result: read-only.
	sel *selection
	err error
}

// batchGroup is one forming batch: the leader created it, followers
// append themselves while it is still their tenant's forming group,
// and everyone waits on done.
type batchGroup struct {
	pendings []*pending
	done     chan struct{}
}

// dispatch runs p through tenant t's batching collector and blocks
// until its result is filled in.
//
// The collector is a group-commit: the first upload to arrive becomes
// the batch leader, publishes the group so later uploads can join, and
// only then waits for a search slot. Under load every upload that
// queues behind busy workers piles into the leader's group — one shard
// pass serves them all — while a lone request on an idle server passes
// straight through with no added latency (the default BatchWindow of
// zero adds no artificial wait).
//
// Each tenant owns its collector: only same-tenant uploads coalesce,
// because one batched pass walks exactly one tenant's shards. The
// worker pool underneath is shared across tenants.
func (e *Engine) dispatch(t *tenant, p *pending) {
	t.batchMu.Lock()
	if g := t.forming; g != nil && len(g.pendings) < e.cfg.MaxBatch {
		g.pendings = append(g.pendings, p)
		t.batchMu.Unlock()
		<-g.done
		return
	}
	g := &batchGroup{pendings: []*pending{p}, done: make(chan struct{})}
	if e.cfg.MaxBatch > 1 {
		t.forming = g
	}
	t.batchMu.Unlock()

	if e.cfg.BatchWindow > 0 && e.cfg.MaxBatch > 1 {
		// An explicit collection window trades a bounded delay for
		// bigger batches even when workers are free. With MaxBatch 1
		// no joiner could ever form a batch, so no wait either. The
		// wait aborts when the server stops, so Shutdown drains the
		// already-collected group immediately instead of sitting out
		// the window.
		timer := time.NewTimer(e.cfg.BatchWindow)
		select {
		case <-timer.C:
		case <-e.done:
			timer.Stop()
		}
	}
	e.sem <- struct{}{} // while the leader queues here, followers keep joining
	defer func() { <-e.sem }()

	t.batchMu.Lock()
	if t.forming == g {
		t.forming = nil // seal: no joiners past this point
	}
	batch := g.pendings
	t.batchMu.Unlock()

	// The leader searches on behalf of every joiner, so a panic in the
	// search path must not strand them on g.done: recover, fail the
	// whole batch (one 5xx each), and let the pool keep serving.
	func() {
		defer close(g.done)
		defer func() {
			if r := recover(); r != nil {
				e.Metrics.Panics.Add(1)
				err := fmt.Errorf("internal error: batch search panicked: %v", r)
				for _, p := range batch {
					if p.err == nil && p.sel == nil {
						p.err = err
					}
				}
			}
		}()
		e.searchBatch(t, batch)
	}()
}

// searchBatch runs one batched search over tenant t's store and fans
// the per-query results back out to every pending upload, populating
// the tenant's cache on the way.
func (e *Engine) searchBatch(t *tenant, batch []*pending) {
	e.Metrics.Batches.Add(1)
	e.Metrics.BatchedRequests.Add(int64(len(batch)))
	t.metrics.Batches.Add(1)
	t.metrics.BatchedRequests.Add(int64(len(batch)))
	windows := make([]search.Counts, len(batch))
	for i, p := range batch {
		windows[i] = p.window
	}
	br, err := t.searcher.AlgorithmNCounts(windows)
	if err != nil {
		for _, p := range batch {
			p.err = err
		}
		return
	}
	e.Metrics.Evaluations.Add(int64(br.Evaluated))
	t.metrics.Evaluations.Add(int64(br.Evaluated))
	// Deduplicated queries share one *Result (pointer equality, see
	// search.BatchResult) and so one selection.
	for i, p := range batch {
		res := br.Results[i]
		for j := 0; j < i && p.sel == nil; j++ {
			if br.Results[j] == res {
				p.sel = batch[j].sel
			}
		}
		if p.sel == nil {
			p.sel = e.selectEntries(t, res, len(p.window.Samples))
		}
		if t.cache != nil && p.key != "" {
			t.cache.putAt(p.gen, p.key, p.sel)
		}
	}
}
