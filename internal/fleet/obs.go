package fleet

import (
	"net/http"
	"sort"
	"time"

	"waterwise/internal/server"
)

// timedIngest wraps the gateway jobs handler to record its wall time
// into the fleet's ingest histogram.
func (f *Fleet) timedIngest(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if f.ingest == nil || r.Method != http.MethodPost {
			h(w, r)
			return
		}
		t0 := time.Now()
		h(w, r)
		f.ingest.Record(time.Since(t0).Seconds())
	}
}

// ObsSnapshots returns the fleet-merged histogram counters: every
// shard's snapshots summed bucket-by-bucket (the merge the bucketing
// scheme was designed for — all histograms share one boundary set, so
// addition is exact). Nil when observability is disabled.
func (f *Fleet) ObsSnapshots() *server.ObsSnapshots {
	var merged *server.ObsSnapshots
	for _, s := range f.shardList() {
		snaps := s.ObsSnapshots()
		if snaps == nil {
			continue
		}
		if merged == nil {
			merged = snaps
			continue
		}
		merged.Merge(snaps)
	}
	if merged != nil && f.ingest != nil {
		// Jobs enter through the gateway, so its ingest histogram joins
		// the (shard-HTTP-only) shard ingest counters.
		merged.Ingest.Merge(f.ingest.Snapshot())
	}
	return merged
}

// SlowestRounds returns the slowest scheduling rounds across every
// shard, slowest first, each stamped with its owning shard — the
// fleet's /v1/rounds/slowest view. Nil when observability is disabled.
func (f *Fleet) SlowestRounds() []server.RoundTraceWire {
	var out []server.RoundTraceWire
	enabled := false
	for i, s := range f.shardList() {
		rts := s.SlowestRounds()
		if s.JobSampleEvery() != 0 || rts != nil {
			enabled = true
		}
		for _, rt := range rts {
			w := server.WireRoundTrace(rt)
			shard := i
			w.Shard = &shard
			out = append(out, w)
		}
	}
	if !enabled {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	if cap := f.slowestCap(); len(out) > cap {
		out = out[:cap]
	}
	return out
}

// RecentRounds returns up to n of the fleet's latest rounds, newest
// first across shards (n <= 0 means every retained round). Nil when
// observability is disabled.
func (f *Fleet) RecentRounds(n int) []server.RoundTraceWire {
	var out []server.RoundTraceWire
	enabled := false
	for i, s := range f.shardList() {
		rts := s.RecentRounds(n)
		if rts != nil {
			enabled = true
		}
		for _, rt := range rts {
			w := server.WireRoundTrace(rt)
			shard := i
			w.Shard = &shard
			out = append(out, w)
		}
	}
	if !enabled {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Wall.After(out[j].Wall) })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// slowestCap bounds the merged slowest view to the same exemplar count
// each shard retains.
func (f *Fleet) slowestCap() int {
	if f.cfg.Obs.SlowestRounds > 0 {
		return f.cfg.Obs.SlowestRounds
	}
	return 32
}

// JobTrace scans the shards for a sampled job's lifecycle trace —
// the fleet's /v1/jobs/{id}/trace view. Job ids are fleet-unique, so at
// most one shard answers.
func (f *Fleet) JobTrace(id int) (server.JobTraceResponse, bool) {
	for i, s := range f.shardList() {
		if jt, ok := s.JobTrace(id); ok {
			shard := i
			return server.JobTraceResponse{
				Shard: &shard, Trace: jt, SampleEvery: s.JobSampleEvery(),
			}, true
		}
	}
	return server.JobTraceResponse{}, false
}
