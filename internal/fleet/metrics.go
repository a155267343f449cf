package fleet

import (
	"fmt"

	"waterwise/internal/server"
)

// MetricsText renders the fleet exposition as bytes. Split from the HTTP
// handler because the fleet-level flight recorder scrapes the merged
// exposition in-process on the shards' round clock. The per-server
// families come from the server's renderer, one shard-labeled row per
// shard; the gateway adds only its own families: merge and supervisor
// counters, the shard-merged waterwise_fleet_* histograms (what a client
// of the gateway sees — exact sums, since every histogram shares one
// bucket scheme), the feed, and the recorder.
func (f *Fleet) MetricsText() []byte {
	st := f.Status()
	b := server.AppendBuildInfo(nil)
	head := func(name, typ, help string) {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	head("waterwise_fleet_shards", "gauge", "Scheduler shards behind this gateway.")
	b = fmt.Appendf(b, "waterwise_fleet_shards %d\n", st.Shards)
	head("waterwise_fleet_merged_decisions_total", "counter", "Decisions emitted into the merged global stream.")
	b = fmt.Appendf(b, "waterwise_fleet_merged_decisions_total %d\n", st.Merged)
	head("waterwise_fleet_lost_decisions_total", "counter", "Decisions evicted from a shard ring before the merge read them.")
	b = fmt.Appendf(b, "waterwise_fleet_lost_decisions_total %d\n", st.Lost)
	if st.Supervisor != nil {
		head("waterwise_fleet_restarts_total", "counter", "Supervisor-driven shard restarts.")
		b = fmt.Appendf(b, "waterwise_fleet_restarts_total %d\n", st.Supervisor.Restarts)
		head("waterwise_fleet_shard_up", "gauge", "1 while the shard's round loop is serving, 0 while dead or restarting.")
		for _, ss := range st.Supervisor.Shards {
			up := 1
			if ss.State != "up" {
				up = 0
			}
			b = fmt.Appendf(b, "waterwise_fleet_shard_up{shard=\"%d\"} %d\n", ss.Shard, up)
		}
	}
	// Labeled per shard rather than summed: the operator's question for a
	// sharded deployment is "which shard is behind"; sums are one PromQL
	// aggregation away.
	rows := make([]server.MetricsRow, len(st.ShardStatus))
	for i, s := range f.shardList() {
		ss := &st.ShardStatus[i]
		rows[i] = server.MetricsRow{Labels: fmt.Sprintf("shard=\"%d\"", ss.Shard), Status: &ss.Status, Obs: s.ObsSnapshots()}
	}
	b = server.AppendServerMetrics(b, rows)
	b = server.AppendObsMetrics(b, "waterwise_fleet_", []server.MetricsRow{{Obs: f.ObsSnapshots()}})
	// One feed block, not one per shard: every shard reads the same
	// provider through its partition view, so per-shard labels would just
	// repeat one health record N times.
	b = server.AppendFeedMetrics(b, st.Feed)
	if f.recorder != nil {
		b = f.recorder.AppendMetrics(b, "waterwise_")
	}
	return b
}
