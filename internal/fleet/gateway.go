package fleet

import (
	"net/http"

	"waterwise/internal/server"
)

// Handler returns the gateway's HTTP API — the same four paths a single
// server exposes, built from the same handler skeletons
// (server.JobsHandler and friends), fleet-wide:
//
//	POST /v1/jobs       — submit one JobSpec or an array; each job is
//	                      routed to the shard owning its home region
//	GET  /v1/decisions  — globally seq-numbered merged decision log;
//	                      ?since=<seq>&limit=<n>
//	GET  /v1/status     — aggregate + per-shard snapshots
//	GET  /metrics       — Prometheus text metrics with shard labels
//	GET  /v1/rounds/slowest   — slowest rounds across shards; ?recent=<n>
//	GET  /v1/jobs/{id}/trace  — sampled job lifecycle, any shard
//	GET  /v1/query            — windowed queries over recorded fleet metrics
//	GET  /v1/alerts           — fleet burn-rate SLO alert states
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(server.PathJobs, f.timedIngest(server.JobsHandler(f.Submit)))
	mux.HandleFunc(server.PathRounds, server.SlowestRoundsHandler(f.SlowestRounds, f.RecentRounds))
	mux.HandleFunc(server.PathJobs+"/", server.JobTraceHandler(f.JobTrace))
	mux.HandleFunc(server.PathDecisions, server.DecisionsHandler(func(since uint64, limit int) (interface{}, uint64) {
		ds := f.Decisions(since, limit)
		next := since
		if len(ds) > 0 {
			next = ds[len(ds)-1].Seq
		}
		return ds, next
	}))
	mux.HandleFunc(server.PathStatus, server.StatusHandler(func() interface{} { return f.Status() }))
	mux.HandleFunc(server.PathMetrics, server.MetricsHandler(f.MetricsText))
	mux.HandleFunc(server.PathQuery, server.QueryHandler(f.Recorder))
	mux.HandleFunc(server.PathAlerts, server.AlertsHandler(f.Recorder))
	return mux
}
