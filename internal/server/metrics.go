package server

import (
	"fmt"
	"io"
	"sync/atomic"

	"conflictres"
	"conflictres/internal/live"
)

// metrics holds the server's monotonic counters. Everything is atomic so the
// hot path never takes a lock for accounting.
type metrics struct {
	// Requests per endpoint.
	resolveRequests  atomic.Int64
	batchRequests    atomic.Int64
	datasetRequests  atomic.Int64
	validateRequests atomic.Int64
	sessionRequests  atomic.Int64
	entityRequests   atomic.Int64
	errorResponses   atomic.Int64

	// Dataset rows streamed through /v1/resolve/dataset.
	datasetRows atomic.Int64

	// Work done.
	entitiesResolved atomic.Int64
	entitiesInvalid  atomic.Int64
	entitiesFailed   atomic.Int64

	// Entities routed per resolution strategy, indexed by conflictres.Strategy
	// (sessions and live entities count at creation, resolves per entity).
	modeCounts [4]atomic.Int64

	// Cumulative per-phase time, nanoseconds (from core.Timing).
	encodeNs   atomic.Int64
	loadNs     atomic.Int64
	validityNs atomic.Int64
	deduceNs   atomic.Int64
	suggestNs  atomic.Int64

	// Incremental-session reuse counters (from Result.Session): how many
	// solver builds the session engine performed vs how many ⊕ Ot steps it
	// absorbed incrementally, and how many SAT queries the shared solvers
	// answered.
	sessionRebuilds atomic.Int64
	sessionExtends  atomic.Int64
	sessionSolves   atomic.Int64
	sessionClauses  atomic.Int64

	// Live-entity snapshot restore outcomes (RestoreLiveEntities).
	liveRestored       atomic.Int64
	liveRestoreSkipped atomic.Int64
}

// observe accounts one resolved entity's outcome, phase timings and session
// reuse counters.
func (m *metrics) observe(res *conflictres.Result) {
	m.entitiesResolved.Add(1)
	if !res.Valid {
		m.entitiesInvalid.Add(1)
	}
	m.encodeNs.Add(int64(res.Timing.Encode))
	m.loadNs.Add(int64(res.Timing.Load))
	m.validityNs.Add(int64(res.Timing.Validity))
	m.deduceNs.Add(int64(res.Timing.Deduce))
	m.suggestNs.Add(int64(res.Timing.Suggest))
	m.sessionRebuilds.Add(int64(res.Session.Rebuilds))
	m.sessionExtends.Add(int64(res.Session.Extends))
	m.sessionSolves.Add(res.Session.Solves)
	m.sessionClauses.Add(int64(res.Session.ClausesLoaded))
}

// observeMode accounts one entity (or session/live-entity creation) routed
// under a resolution strategy.
func (m *metrics) observeMode(s conflictres.Strategy) {
	if i := int(s); i >= 0 && i < len(m.modeCounts) {
		m.modeCounts[i].Add(1)
	}
}

// write renders the counters in Prometheus text exposition format.
func (m *metrics) write(w io.Writer, cache *lru, sessions SessionStore, liveReg *live.Registry) {
	hits, misses, size := cache.stats()
	var hitRate float64
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "# TYPE crserve_requests_total counter\n")
	fmt.Fprintf(w, "crserve_requests_total{endpoint=\"resolve\"} %d\n", m.resolveRequests.Load())
	fmt.Fprintf(w, "crserve_requests_total{endpoint=\"batch\"} %d\n", m.batchRequests.Load())
	fmt.Fprintf(w, "crserve_requests_total{endpoint=\"dataset\"} %d\n", m.datasetRequests.Load())
	fmt.Fprintf(w, "crserve_requests_total{endpoint=\"validate\"} %d\n", m.validateRequests.Load())
	fmt.Fprintf(w, "crserve_requests_total{endpoint=\"session\"} %d\n", m.sessionRequests.Load())
	fmt.Fprintf(w, "crserve_requests_total{endpoint=\"entity\"} %d\n", m.entityRequests.Load())
	fmt.Fprintf(w, "# TYPE crserve_dataset_rows_total counter\n")
	fmt.Fprintf(w, "crserve_dataset_rows_total %d\n", m.datasetRows.Load())
	fmt.Fprintf(w, "# TYPE crserve_error_responses_total counter\n")
	fmt.Fprintf(w, "crserve_error_responses_total %d\n", m.errorResponses.Load())
	fmt.Fprintf(w, "# TYPE crserve_entities_total counter\n")
	fmt.Fprintf(w, "crserve_entities_total{outcome=\"resolved\"} %d\n", m.entitiesResolved.Load())
	fmt.Fprintf(w, "crserve_entities_total{outcome=\"invalid\"} %d\n", m.entitiesInvalid.Load())
	fmt.Fprintf(w, "crserve_entities_total{outcome=\"failed\"} %d\n", m.entitiesFailed.Load())
	fmt.Fprintf(w, "# TYPE crserve_resolve_mode_total counter\n")
	for i, name := range conflictres.StrategyNames() {
		fmt.Fprintf(w, "crserve_resolve_mode_total{mode=%q} %d\n", name, m.modeCounts[i].Load())
	}
	fmt.Fprintf(w, "# TYPE crserve_phase_seconds_total counter\n")
	fmt.Fprintf(w, "crserve_phase_seconds_total{phase=\"encode\"} %g\n", float64(m.encodeNs.Load())/1e9)
	fmt.Fprintf(w, "crserve_phase_seconds_total{phase=\"load\"} %g\n", float64(m.loadNs.Load())/1e9)
	fmt.Fprintf(w, "crserve_phase_seconds_total{phase=\"validity\"} %g\n", float64(m.validityNs.Load())/1e9)
	fmt.Fprintf(w, "crserve_phase_seconds_total{phase=\"deduce\"} %g\n", float64(m.deduceNs.Load())/1e9)
	fmt.Fprintf(w, "crserve_phase_seconds_total{phase=\"suggest\"} %g\n", float64(m.suggestNs.Load())/1e9)
	fmt.Fprintf(w, "# TYPE crserve_session_rebuilds_total counter\n")
	fmt.Fprintf(w, "crserve_session_rebuilds_total %d\n", m.sessionRebuilds.Load())
	fmt.Fprintf(w, "# TYPE crserve_session_extends_total counter\n")
	fmt.Fprintf(w, "crserve_session_extends_total %d\n", m.sessionExtends.Load())
	fmt.Fprintf(w, "# TYPE crserve_session_solves_total counter\n")
	fmt.Fprintf(w, "crserve_session_solves_total %d\n", m.sessionSolves.Load())
	fmt.Fprintf(w, "# TYPE crserve_session_clauses_loaded_total counter\n")
	fmt.Fprintf(w, "crserve_session_clauses_loaded_total %d\n", m.sessionClauses.Load())
	sc := sessions.Counters()
	fmt.Fprintf(w, "# TYPE crserve_session_store_live gauge\n")
	fmt.Fprintf(w, "crserve_session_store_live %d\n", sessions.Live())
	fmt.Fprintf(w, "# TYPE crserve_session_store_created_total counter\n")
	fmt.Fprintf(w, "crserve_session_store_created_total %d\n", sc.Created)
	fmt.Fprintf(w, "# TYPE crserve_session_store_expired_total counter\n")
	fmt.Fprintf(w, "crserve_session_store_expired_total %d\n", sc.Expired)
	fmt.Fprintf(w, "# TYPE crserve_session_store_evicted_total counter\n")
	fmt.Fprintf(w, "crserve_session_store_evicted_total %d\n", sc.Evicted)
	lc := liveReg.CountersSnapshot()
	fmt.Fprintf(w, "# TYPE crserve_live_entities gauge\n")
	fmt.Fprintf(w, "crserve_live_entities %d\n", liveReg.Live())
	fmt.Fprintf(w, "# TYPE crserve_live_extends_total counter\n")
	fmt.Fprintf(w, "crserve_live_extends_total %d\n", lc.Extends)
	fmt.Fprintf(w, "# TYPE crserve_live_rebuilds_total counter\n")
	fmt.Fprintf(w, "crserve_live_rebuilds_total %d\n", lc.Rebuilds)
	fmt.Fprintf(w, "# TYPE crserve_live_created_total counter\n")
	fmt.Fprintf(w, "crserve_live_created_total %d\n", lc.Created)
	fmt.Fprintf(w, "# TYPE crserve_live_expired_total counter\n")
	fmt.Fprintf(w, "crserve_live_expired_total %d\n", lc.Expired)
	fmt.Fprintf(w, "# TYPE crserve_live_evicted_total counter\n")
	fmt.Fprintf(w, "crserve_live_evicted_total %d\n", lc.Evicted)
	fmt.Fprintf(w, "# TYPE crserve_live_snapshot_restored_total counter\n")
	fmt.Fprintf(w, "crserve_live_snapshot_restored_total %d\n", m.liveRestored.Load())
	fmt.Fprintf(w, "# TYPE crserve_live_snapshot_skipped_total counter\n")
	fmt.Fprintf(w, "crserve_live_snapshot_skipped_total %d\n", m.liveRestoreSkipped.Load())
	pool := conflictres.PoolCounters()
	fmt.Fprintf(w, "# TYPE crserve_pool_hits_total counter\n")
	fmt.Fprintf(w, "crserve_pool_hits_total %d\n", pool.Hits)
	fmt.Fprintf(w, "# TYPE crserve_pool_misses_total counter\n")
	fmt.Fprintf(w, "crserve_pool_misses_total %d\n", pool.Misses)
	fmt.Fprintf(w, "# TYPE crserve_pool_skeleton_rebuilds_total counter\n")
	fmt.Fprintf(w, "crserve_pool_skeleton_rebuilds_total %d\n", pool.SkeletonRebuilds)
	fmt.Fprintf(w, "# TYPE crserve_cache_hits_total counter\n")
	fmt.Fprintf(w, "crserve_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# TYPE crserve_cache_misses_total counter\n")
	fmt.Fprintf(w, "crserve_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "# TYPE crserve_cache_entries gauge\n")
	fmt.Fprintf(w, "crserve_cache_entries %d\n", size)
	fmt.Fprintf(w, "# TYPE crserve_cache_hit_rate gauge\n")
	fmt.Fprintf(w, "crserve_cache_hit_rate %g\n", hitRate)
}
