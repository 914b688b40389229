package server

import (
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"securitykg/internal/metrics"
)

// Observability surface: GET /metrics (Prometheus text exposition),
// the enriched /healthz fields, and slow-query logging.
//
// Counters live on the metrics package's process-wide registry — they
// count events, and events from every instance in the process belong in
// one stream. Point-in-time gauges (store sizes, MVCC overlay sizes,
// plan-cache entries, replication lag) are registered on a per-server
// registry instead, because one process can host both a leader and a
// follower (tests do) and their gauges must not collide. A scrape
// renders both, process-wide first.

// registerInstanceGauges wires this server's point-in-time gauges. The
// callbacks run per scrape; each is O(labels) or cheaper.
func (s *Server) registerInstanceGauges() {
	s.reg.GaugeFunc("skg_store_nodes",
		"Live nodes in this instance's store.",
		func() float64 { return float64(s.store.Stats().Nodes) })
	s.reg.GaugeFunc("skg_store_edges",
		"Live edges in this instance's store.",
		func() float64 { return float64(s.store.Stats().Edges) })
	s.reg.GaugeFunc("skg_store_stats_version",
		"Planner statistics version: bumps when the store doubles or halves or gains an attribute index (bumps re-plan cached statements).",
		func() float64 { return float64(s.store.StatsVersion()) })
	s.reg.GaugeFunc("skg_mvcc_open_snapshots",
		"Open MVCC snapshots pinning history.",
		func() float64 { return float64(s.store.MVCCStats().Snapshots) })
	s.reg.GaugeFunc("skg_mvcc_node_versions",
		"Superseded node versions retained for open snapshots.",
		func() float64 { return float64(s.store.MVCCStats().NodeVersions) })
	s.reg.GaugeFunc("skg_mvcc_edge_versions",
		"Superseded edge versions retained for open snapshots.",
		func() float64 { return float64(s.store.MVCCStats().EdgeVersions) })
	s.reg.GaugeFunc("skg_plan_cache_entries",
		"Plans held by this store's shared plan cache.",
		func() float64 { return float64(s.eng.PlanCacheStats().Entries) })
	s.reg.GaugeFunc("skg_ingest_inflight_bytes",
		"Request-body bytes of write statements currently executing.",
		func() float64 { return float64(s.writeInflight.Load()) })
	s.reg.GaugeFunc("skg_uptime_seconds",
		"Seconds since this server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
}

// handleMetrics serves the Prometheus text exposition: process-wide
// counters and histograms first, then this instance's gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.Render(w)
	s.reg.Render(w)
}

// Metrics renders the full exposition this server's /metrics endpoint
// serves (process-wide + instance), for embedding callers.
func (s *Server) Metrics() string {
	return metrics.String() + s.reg.String()
}

var buildVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "(devel)"
})

// healthInfo contributes the build/uptime/stats fields to /healthz.
func (s *Server) healthInfo(out map[string]any) {
	out["uptime_s"] = int64(time.Since(s.started).Seconds())
	out["go_version"] = runtime.Version()
	out["version"] = buildVersion()
	out["stats_version"] = s.store.StatsVersion()
}

// SetSlowQueryLog enables slow-statement logging: any /api/cypher
// statement (plain or streamed) running at least threshold is logged
// with its kind, duration, row count, byte-budget usage, and statement
// text. The text is safe to log — values bind through $params, which
// are never echoed; only the placeholder names appear. A zero or
// negative threshold disables logging. Call before serving.
func (s *Server) SetSlowQueryLog(threshold time.Duration, lg *log.Logger) {
	if lg == nil {
		lg = log.Default()
	}
	s.slowLog = lg
	s.slowNs.Store(int64(threshold))
}

// noteSlow logs one finished statement if it crossed the slow
// threshold. Parameter values are deliberately absent: query texts
// reference them as $name only.
func (s *Server) noteSlow(query string, kind string, began time.Time, rows int, budget int64) {
	th := s.slowNs.Load()
	if th <= 0 {
		return
	}
	elapsed := time.Since(began)
	if elapsed < time.Duration(th) {
		return
	}
	s.slowLog.Printf("slow query: kind=%s duration=%s rows=%d budget_bytes=%d stmt=%q",
		kind, elapsed.Round(time.Microsecond), rows, budget, query)
}

// statementKind labels a finished result for the slow log.
func statementKind(writes bool) string {
	if writes {
		return "write"
	}
	return "read"
}
