package obs

import (
	"runtime"

	"emap/internal/cloud"
	"emap/internal/cluster"
	"emap/internal/edge"
)

// counter/gauge are emission shorthands used by the adapters below.
func counter(emit func(Sample), name, help string, v float64, labels ...Label) {
	emit(Sample{Name: name, Help: help, Kind: Counter, Labels: labels, Value: v})
}

func gauge(emit func(Sample), name, help string, v float64, labels ...Label) {
	emit(Sample{Name: name, Help: help, Kind: Gauge, Labels: labels, Value: v})
}

// CloudCollector adapts a cloud engine (or the Server embedding one)
// to the Collector interface: the registry-wide counters under
// emap_cloud_*, plus a per-tenant breakdown of the serving counters
// under emap_tenant_* with a tenant label. One scrape takes one
// snapshot per metrics struct; nothing is read unsynchronized.
func CloudCollector(e *cloud.Engine) Collector {
	return CollectorFunc(func(emit func(Sample)) {
		s := e.Metrics.Snapshot()
		counter(emit, "emap_cloud_connections_total", "Edge connections accepted.", float64(s.Connections))
		counter(emit, "emap_cloud_requests_total", "Requests served across all connections.", float64(s.Requests))
		counter(emit, "emap_cloud_errors_total", "Requests answered with a server error.", float64(s.Errors))
		gauge(emit, "emap_cloud_in_flight", "Uploads currently queued or searching.", float64(s.InFlight))
		gauge(emit, "emap_cloud_in_flight_peak", "High-water mark of in-flight uploads.", float64(s.PeakInFlight))
		gauge(emit, "emap_cloud_search_backlog", "Uploads queued for or occupying the worker pool (admission control sheds on this).", float64(s.SearchBacklog))
		counter(emit, "emap_cloud_rate_limited_total", "Requests refused by the per-tenant token bucket.", float64(s.RateLimited))
		counter(emit, "emap_cloud_shed_total", "Routine-priority uploads shed under saturation.", float64(s.Shed))
		counter(emit, "emap_cloud_batches_total", "Batched search passes.", float64(s.Batches))
		counter(emit, "emap_cloud_batched_requests_total", "Uploads served by batched search passes.", float64(s.BatchedRequests))
		counter(emit, "emap_cloud_cache_hits_total", "Correlation-set cache hits.", float64(s.CacheHits))
		counter(emit, "emap_cloud_cache_misses_total", "Correlation-set cache misses.", float64(s.CacheMisses))
		counter(emit, "emap_cloud_evaluations_total", "Omega evaluations performed by shard scans.", float64(s.Evaluations))
		counter(emit, "emap_cloud_ingests_total", "Recordings inserted via TypeIngest.", float64(s.Ingests))
		counter(emit, "emap_cloud_ingested_sets_total", "Signal-sets produced by ingests.", float64(s.IngestedSets))
		counter(emit, "emap_cloud_panics_total", "Handler panics recovered by the transport or batch leader.", float64(s.Panics))
		counter(emit, "emap_cloud_persist_errors_total", "Eviction-time snapshot persists that failed.", float64(s.PersistErrors))
		counter(emit, "emap_cloud_idle_reaped_total", "Connections closed by the idle read deadline.", float64(s.IdleReaped))
		gauge(emit, "emap_cloud_request_latency_mean_seconds", "Mean per-request service time.", s.MeanLatency.Seconds())
		gauge(emit, "emap_cloud_batch_size_mean", "Mean uploads served per batched search pass.", s.BatchSizeMean)

		if reg := e.Registry(); reg != nil && reg.WALEnabled() {
			w := reg.WALMetrics().Snapshot()
			counter(emit, "emap_wal_appends_total", "Ingest frames appended to tenant write-ahead logs.", float64(w.Appends))
			counter(emit, "emap_wal_appended_bytes_total", "Bytes appended to tenant write-ahead logs, frames included.", float64(w.AppendedBytes))
			counter(emit, "emap_wal_syncs_total", "fsync barriers issued on tenant write-ahead logs.", float64(w.Syncs))
			counter(emit, "emap_wal_sync_seconds_total", "Wall time spent inside WAL fsync barriers.", float64(w.SyncNanos)/1e9)
			if w.Syncs > 0 {
				gauge(emit, "emap_wal_sync_latency_mean_seconds", "Mean fsync barrier latency.", float64(w.SyncNanos)/1e9/float64(w.Syncs))
			}
			counter(emit, "emap_wal_replayed_total", "Journal records replayed into stores on open or adopt.", float64(w.Replayed))
			counter(emit, "emap_wal_torn_tails_total", "Torn or corrupt log tails truncated during replay.", float64(w.TornTails))
			counter(emit, "emap_wal_truncated_bytes_total", "Bytes discarded from torn log tails.", float64(w.TruncatedBytes))
			counter(emit, "emap_wal_checkpoints_total", "Log checkpoints after a covering snapshot persisted.", float64(w.Checkpoints))
		}

		for _, id := range e.Tenants() {
			m := e.MetricsFor(id)
			if m == nil {
				continue
			}
			ts := m.Snapshot()
			l := Label{Name: "tenant", Value: id}
			counter(emit, "emap_tenant_requests_total", "Requests served, by tenant.", float64(ts.Requests), l)
			counter(emit, "emap_tenant_errors_total", "Server errors, by tenant.", float64(ts.Errors), l)
			counter(emit, "emap_tenant_rate_limited_total", "Token-bucket refusals, by tenant.", float64(ts.RateLimited), l)
			counter(emit, "emap_tenant_shed_total", "Shed routine uploads, by tenant.", float64(ts.Shed), l)
			counter(emit, "emap_tenant_cache_hits_total", "Correlation-set cache hits, by tenant.", float64(ts.CacheHits), l)
			counter(emit, "emap_tenant_cache_misses_total", "Correlation-set cache misses, by tenant.", float64(ts.CacheMisses), l)
			counter(emit, "emap_tenant_ingests_total", "Recordings ingested, by tenant.", float64(ts.Ingests), l)
			gauge(emit, "emap_tenant_request_latency_mean_seconds", "Mean per-request service time, by tenant.", ts.MeanLatency.Seconds(), l)
			if ss, ok := e.StoreStatsFor(id); ok {
				gauge(emit, "emap_tenant_store_bytes", "Resident store bytes, by tenant and tier.", float64(ss.HotBytes), l, Label{Name: "tier", Value: "hot"})
				gauge(emit, "emap_tenant_store_bytes", "Resident store bytes, by tenant and tier.", float64(ss.WarmBytes), l, Label{Name: "tier", Value: "warm"})
				gauge(emit, "emap_tenant_store_bytes", "Resident store bytes, by tenant and tier.", float64(ss.ColdBytes), l, Label{Name: "tier", Value: "cold"})
				counter(emit, "emap_tenant_store_promotions_total", "Store tier promotions, by tenant.", float64(ss.Promotions), l)
				counter(emit, "emap_tenant_store_demotions_total", "Store tier demotions, by tenant.", float64(ss.Demotions), l)
			}
		}
	})
}

// RouterCollector adapts a cluster router: the transport-level
// counters under emap_router_*, the routing-specific counters, and
// the current ring shape.
func RouterCollector(r *cluster.Router) Collector {
	return CollectorFunc(func(emit func(Sample)) {
		s := r.Metrics.Snapshot()
		counter(emit, "emap_router_connections_total", "Edge connections accepted by the router.", float64(s.Connections))
		counter(emit, "emap_router_requests_total", "Requests routed.", float64(s.Requests))
		counter(emit, "emap_router_errors_total", "Requests answered with a routing error.", float64(s.Errors))
		gauge(emit, "emap_router_in_flight", "Requests currently being routed.", float64(s.InFlight))
		rs := r.Routing.Snapshot()
		counter(emit, "emap_router_moved_retries_total", "Requests replayed after a MOVED redirect.", float64(rs.MovedRetries))
		counter(emit, "emap_router_node_failures_total", "Nodes evicted from the ring after connection death.", float64(rs.NodeFailures))
		if ring := r.Ring(); ring != nil {
			gauge(emit, "emap_router_ring_epoch", "Epoch of the current hash ring.", float64(ring.Epoch()))
			gauge(emit, "emap_router_ring_nodes", "Member nodes in the current hash ring.", float64(ring.Len()))
		}
	})
}

// ClientCollector adapts one edge client's connection metrics under
// emap_client_*, labelled with the given client name (the fleet
// harness aggregates devices; a single device exports itself).
func ClientCollector(name string, m *edge.ClientMetrics) Collector {
	l := Label{Name: "client", Value: name}
	return CollectorFunc(func(emit func(Sample)) {
		s := m.Snapshot()
		counter(emit, "emap_client_dials_total", "Connection attempts.", float64(s.Dials), l)
		counter(emit, "emap_client_dial_failures_total", "Failed connection attempts.", float64(s.DialFailures), l)
		counter(emit, "emap_client_reconnects_total", "Connections re-established after a failure.", float64(s.Reconnects), l)
		counter(emit, "emap_client_conn_lost_total", "Live connections retired by a read or write error.", float64(s.ConnLost), l)
		counter(emit, "emap_client_keepalives_total", "Keepalive probes sent.", float64(s.Keepalives), l)
		counter(emit, "emap_client_keepalive_failures_total", "Keepalive probes that failed.", float64(s.KeepaliveFailures), l)
		counter(emit, "emap_client_redirects_total", "MOVED replies followed to a new owner node.", float64(s.Redirects), l)
	})
}

// RuntimeCollector exports Go runtime health: goroutine count and the
// headline memory figures.
func RuntimeCollector() Collector {
	return CollectorFunc(func(emit func(Sample)) {
		gauge(emit, "emap_go_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gauge(emit, "emap_go_heap_alloc_bytes", "Heap bytes allocated and in use.", float64(ms.HeapAlloc))
		gauge(emit, "emap_go_heap_sys_bytes", "Heap bytes obtained from the OS.", float64(ms.HeapSys))
		counter(emit, "emap_go_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	})
}
