package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"waterwise/internal/feed"
	"waterwise/internal/obs"
	"waterwise/internal/region"
)

// MetricsHandler builds the GET /metrics handler over an exposition
// renderer — shared by the single server and the fleet gateway.
func MetricsHandler(render func() []byte) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(render())
	}
}

// MetricsText renders the full exposition as bytes. Split from the HTTP
// handler because the metrics flight recorder scrapes it in-process on
// the round clock — one renderer, two consumers.
func (s *Server) MetricsText() []byte {
	st := s.Status()
	b := AppendBuildInfo(nil)
	b = AppendServerMetrics(b, []MetricsRow{{Status: &st, Obs: s.ObsSnapshots()}})
	b = AppendFeedMetrics(b, st.Feed)
	if s.recorder != nil {
		b = s.recorder.AppendMetrics(b, "waterwise_")
	}
	return b
}

// MetricsRow is one source of the per-server families: a server's Status
// and histogram snapshots (nil when observability is off), with Labels
// spliced into every series — empty for a standalone server, shard="N"
// for each shard behind the fleet gateway.
type MetricsRow struct {
	Labels string
	Status *Status
	Obs    *ObsSnapshots
}

// family is one counter or gauge rendered from a Status.
type family struct {
	name, typ, help string
	value           func(*Status) float64
}

var coreFamilies = []family{
	{"waterwise_jobs_accepted_total", "counter", "Jobs accepted into the ingest queue.",
		func(st *Status) float64 { return float64(st.Accepted) }},
	{"waterwise_jobs_rejected_total", "counter", "Jobs rejected (backpressure, validation, duplicates).",
		func(st *Status) float64 { return float64(st.Rejected) }},
	{"waterwise_rounds_total", "counter", "Scheduling rounds run.",
		func(st *Status) float64 { return float64(st.Rounds) }},
	{"waterwise_decisions_total", "counter", "Placement decisions committed.",
		func(st *Status) float64 { return float64(st.Decisions) }},
	{"waterwise_jobs_unscheduled_total", "counter", "Jobs abandoned without a placement.",
		func(st *Status) float64 { return float64(st.Unscheduled) }},
	{"waterwise_queue_pending", "gauge", "Jobs awaiting a placement decision.",
		func(st *Status) float64 { return float64(st.Pending) }},
	{"waterwise_queue_future", "gauge", "Accepted jobs not yet due for a round.",
		func(st *Status) float64 { return float64(st.Future) }},
	{"waterwise_queue_cap", "gauge", "Ingest queue capacity (backpressure threshold).",
		func(st *Status) float64 { return float64(st.QueueCap) }},
}

// solverFamilies render for rows whose scheduler exposes solver stats.
var solverFamilies = []family{
	{"waterwise_solver_nodes_total", "counter", "Branch-and-bound nodes across all rounds.",
		func(st *Status) float64 { return float64(st.Solver.Nodes) }},
	{"waterwise_solver_simplex_iters_total", "counter", "Simplex pivots across all rounds.",
		func(st *Status) float64 { return float64(st.Solver.SimplexIters) }},
	{"waterwise_solver_warm_starts_total", "counter", "LP solves served by a warm start.",
		func(st *Status) float64 { return float64(st.Solver.WarmStarts) }},
	{"waterwise_solver_cold_starts_total", "counter", "LP solves run from scratch.",
		func(st *Status) float64 { return float64(st.Solver.ColdStarts) }},
	{"waterwise_solver_wall_seconds_total", "counter", "Aggregate solver wall time.",
		func(st *Status) float64 { return st.Solver.Wall.Seconds() }},
}

// walFamilies render for rows with a write-ahead log (DataDir set).
var walFamilies = []family{
	{"waterwise_jobs_deduped_total", "counter", "Idempotent re-submits served from the dedupe index.",
		func(st *Status) float64 { return float64(st.WAL.Deduped) }},
	{"waterwise_wal_segments", "gauge", "Write-ahead log segment files on disk.",
		func(st *Status) float64 { return float64(st.WAL.Segments) }},
	{"waterwise_wal_bytes", "gauge", "Write-ahead log size on disk (snapshots excluded).",
		func(st *Status) float64 { return float64(st.WAL.Bytes) }},
	{"waterwise_wal_records_appended_total", "counter", "Records appended to the write-ahead log.",
		func(st *Status) float64 { return float64(st.WAL.Appended) }},
	{"waterwise_wal_records_synced_total", "counter", "Appended records made durable by an fsync.",
		func(st *Status) float64 { return float64(st.WAL.Synced) }},
	{"waterwise_wal_fsyncs_total", "counter", "Fsync batches flushed to the log.",
		func(st *Status) float64 { return float64(st.WAL.Fsyncs) }},
	{"waterwise_wal_fsync_stall_p50_ms", "gauge", "Median fsync stall over the recent window.",
		func(st *Status) float64 { return float64(st.WAL.FsyncP50) / 1e6 }},
	{"waterwise_wal_fsync_stall_p99_ms", "gauge", "99th-percentile fsync stall over the recent window.",
		func(st *Status) float64 { return float64(st.WAL.FsyncP99) / 1e6 }},
	{"waterwise_wal_snapshots_total", "counter", "State snapshots written.",
		func(st *Status) float64 { return float64(st.WAL.Snapshots) }},
	{"waterwise_wal_truncated_bytes_total", "counter", "Torn-tail bytes discarded at the last recovery.",
		func(st *Status) float64 { return float64(st.WAL.TruncatedBytes) }},
	{"waterwise_wal_recovery_ms", "gauge", "Wall time of the last restart's snapshot restore + replay.",
		func(st *Status) float64 { return st.WAL.RecoveryMs }},
	{"waterwise_wal_recovered_records_total", "counter", "Log records replayed at the last restart.",
		func(st *Status) float64 { return float64(st.WAL.RecoveredRecords) }},
}

// AppendServerMetrics renders every per-server family once — one
// # HELP/# TYPE header, then that family's samples for every row — so
// each family's lines form one group, as the text format requires. The
// single server passes one unlabeled row; the fleet gateway passes one
// shard-labeled row per shard. Solver and WAL families render for the
// rows that have them and are omitted when none do.
func AppendServerMetrics(b []byte, rows []MetricsRow) []byte {
	all := func(*Status) bool { return true }
	b = appendFamilies(b, rows, coreFamilies, all)
	b = AppendObsMetrics(b, "waterwise_", rows)
	b = append(b, "# HELP waterwise_region_free_servers Servers free per region at the simulated clock.\n# TYPE waterwise_region_free_servers gauge\n"...)
	for _, r := range rows {
		// Per-region free servers, in stable region order.
		ids := make([]string, 0, len(r.Status.Free))
		for id := range r.Status.Free {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		for _, id := range ids {
			b = appendSeries(b, "waterwise_region_free_servers", joinLabels("region="+strconv.Quote(id), r.Labels))
			b = strconv.AppendInt(b, int64(r.Status.Free[region.ID(id)]), 10)
			b = append(b, '\n')
		}
	}
	b = appendFamilies(b, rows, solverFamilies, func(st *Status) bool { return st.Solver != nil })
	return appendFamilies(b, rows, walFamilies, func(st *Status) bool { return st.WAL != nil })
}

// appendFamilies renders each family in fams over the rows for which has
// holds; a family with no such row is omitted, header included.
func appendFamilies(b []byte, rows []MetricsRow, fams []family, has func(*Status) bool) []byte {
	for _, f := range fams {
		wrote := false
		for _, r := range rows {
			if !has(r.Status) {
				continue
			}
			if !wrote {
				b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
				wrote = true
			}
			b = appendSeries(b, f.name, r.Labels)
			b = strconv.AppendFloat(b, f.value(r.Status), 'g', -1, 64)
			b = append(b, '\n')
		}
	}
	return b
}

// appendSeries renders a sample line's `name{labels} ` prefix.
func appendSeries(b []byte, name, labels string) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	return append(b, ' ')
}

// joinLabels joins two comma-separated label lists, either possibly empty.
func joinLabels(a, b string) string {
	if a == "" || b == "" {
		return a + b
	}
	return a + "," + b
}

// AppendObsMetrics renders the observability histograms in Prometheus
// text format, family by family over the rows that have snapshots:
// <prefix>decision_latency_seconds, <prefix>ingest_request_seconds,
// <prefix>round_duration_seconds, and <prefix>round_stage_seconds{stage=...}.
// The per-server families use prefix "waterwise_"; the fleet renders its
// shard-merged distributions as one unlabeled row under "waterwise_fleet_".
func AppendObsMetrics(b []byte, prefix string, rows []MetricsRow) []byte {
	hist := func(name, help string, snap func(*ObsSnapshots) *obs.Snapshot) {
		first := true
		for _, r := range rows {
			if r.Obs != nil {
				b = snap(r.Obs).AppendProm(b, prefix+name, help, r.Labels, first)
				first = false
			}
		}
	}
	hist("decision_latency_seconds", "Server-side decision latency: Submit acceptance to round commit (wall seconds).",
		func(s *ObsSnapshots) *obs.Snapshot { return &s.Decision })
	hist("ingest_request_seconds", "POST /v1/jobs handler wall time in seconds.",
		func(s *ObsSnapshots) *obs.Snapshot { return &s.Ingest })
	hist("round_duration_seconds", "Scheduling round wall time in seconds, all stages.",
		func(s *ObsSnapshots) *obs.Snapshot { return &s.Round })
	first := true
	for _, r := range rows {
		if r.Obs == nil {
			continue
		}
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			b = r.Obs.Stages[st].AppendProm(b, prefix+"round_stage_seconds",
				"Per-stage round wall time in seconds; solve is Fig. 13's scheduler invocation cost.",
				joinLabels("stage="+strconv.Quote(st.String()), r.Labels), first)
			first = false
		}
	}
	return b
}

// AppendFeedMetrics renders the environment-feed health block — provider
// identity, staleness, and fetch/cache accounting — in Prometheus text
// format. Shared by this server's /metrics and the fleet gateway's
// (which reports the one provider all shards share exactly once, rather
// than once per shard).
func AppendFeedMetrics(b []byte, h *feed.Health) []byte {
	if h == nil {
		return b
	}
	label := func(name, help, typ string, v float64) {
		b = append(b, fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n%s{provider=%q} %g\n",
			name, help, name, typ, name, h.Provider, v)...)
	}
	stale := 0.0
	if h.Stale {
		stale = 1
	}
	label("waterwise_feed_staleness_seconds", "Age of the oldest region's last good feed reading.", "gauge", h.StalenessSeconds)
	label("waterwise_feed_stale", "1 when any region's feed reading is older than the freshness target.", "gauge", stale)
	label("waterwise_feed_fetches_total", "Upstream feed fetches attempted.", "counter", float64(h.Fetches))
	label("waterwise_feed_fetch_errors_total", "Upstream feed fetches that failed (timeouts, 429s, bad payloads).", "counter", float64(h.FetchErrors))
	label("waterwise_feed_cache_hits_total", "Feed reads served inside the freshness window.", "counter", float64(h.CacheHits))
	label("waterwise_feed_cache_misses_total", "Feed reads past the freshness window (served stale or forecast).", "counter", float64(h.CacheMisses))
	label("waterwise_feed_forecast_served_total", "Feed reads degraded to the forecast fallback.", "counter", float64(h.ForecastServed))
	return b
}
