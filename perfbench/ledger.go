package main

import (
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/milp"
)

// schedTotals sums what the traced scheduler wrappers recorded.
type schedTotals struct {
	rounds, decided, softened int64
	backlog                   int
	durations                 []float64
	solver                    milp.Stats
}

func sumSched(ss []*tracedScheduler) schedTotals {
	var t schedTotals
	for _, s := range ss {
		t.rounds += s.rounds
		t.decided += s.decided
		t.softened += int64(s.softened())
		if s.backlog > t.backlog {
			t.backlog = s.backlog
		}
		t.durations = append(t.durations, floats(s.durations)...)
		t.solver.Add(s.solver)
	}
	return t
}

// coreLayers fills the feed, core and milp/lp metrics from the served
// spans and the scheduler wrappers, over dec decisions.
func coreLayers(v map[string]float64, lt layerTimes, st schedTotals, dec float64) {
	rounds := float64(st.rounds)
	if rounds == 0 || dec == 0 {
		return
	}
	v["feed.at_calls_per_decision"] = float64(lt.calls[layerFeed]) / dec
	v["feed.at_self_ns_per_decision"] = float64(lt.self[layerFeed]) / dec
	v["core.schedule_calls_per_decision"] = rounds / dec
	v["core.schedule_self_ns_per_decision"] = float64(lt.self[layerSchedule]) / dec
	v["core.schedule_ns_p99"] = quantile(st.durations, 0.99)
	v["core.batch_per_round"] = float64(st.decided) / rounds
	v["core.backlog_max"] = float64(st.backlog)
	v["core.softened_round_pct"] = 100 * float64(st.softened) / rounds
	v["milp.solve_ns_per_decision"] = float64(lt.total[layerMILP]) / dec
	v["milp.nodes_per_round"] = float64(st.solver.Nodes) / rounds
	v["lp.simplex_iters_per_round"] = float64(st.solver.SimplexIters) / rounds
	if n := st.solver.WarmStarts + st.solver.ColdStarts; n > 0 {
		v["lp.warm_start_pct"] = 100 * float64(st.solver.WarmStarts) / float64(n)
	}
}

// runtimeLayers fills the Go runtime metrics and returns the GC CPU time
// not already inside a span (assists run on the goroutines being timed).
func runtimeLayers(v map[string]float64, a, b runtimeSample, dec float64) time.Duration {
	v["go.allocs_per_decision"] = float64(b.allocs-a.allocs) / dec
	if used := (b.totCPU - a.totCPU) - (b.idleCPU - a.idleCPU); used > 0 {
		v["go.gc_cpu_pct"] = 100 * (b.gcCPU - a.gcCPU) / used
	}
	return time.Duration(((b.gcCPU - a.gcCPU) - (b.assistCPU - a.assistCPU)) * 1e9)
}

// ledger adds up the layers' self times against the process CPU time of
// the measured windows; the remainder is what no layer explains.
func ledger(rep *report, parts map[string]time.Duration, cpu time.Duration) {
	var sum time.Duration
	out := map[string]float64{}
	for name, d := range parts {
		sum += d
		out[name] = 100 * d.Seconds() / cpu.Seconds()
	}
	pct := 100 * sum.Seconds() / cpu.Seconds()
	rep.values["ledger.layer_sum_pct"] = pct
	rep.values["ledger.residual_pct"] = 100 - pct
	rep.ledger["denominator"] = "process CPU time over the traced windows"
	rep.ledger["cpu_s"] = cpu.Seconds()
	rep.ledger["layer_pct_of_cpu"] = out
}

// replayLayers computes the per-layer metrics of a traced replay run.
func replayLayers(rep *report, r *replayRun, reps []*repResult, ref *cluster.Result) {
	var traced, plain []*repResult
	var sch []*tracedScheduler
	var dec float64
	var cpu, wall time.Duration
	var submitNs, serverSubmitNs, pageNs, pageLen []int64
	var encNs, encJobs, decNs, decDecs, decBytes, pollBytes int64
	var postNs, pollNs []int64
	var walRecs, walFsyncs, walBytes, scrapes float64
	var walP99 []float64
	a, b := runtimeSample{}, runtimeSample{}
	for _, rr := range reps {
		if !rr.traced {
			plain = append(plain, rr)
			continue
		}
		traced = append(traced, rr)
		sch = append(sch, rr.sched...)
		dec += float64(rr.decided)
		cpu += time.Duration((rr.rt1.procCPU - rr.rt0.procCPU) * 1e9)
		wall += rr.wall
		a, b = a.add(rr.rt0), b.add(rr.rt1)
		submitNs = append(submitNs, rr.submitNs...)
		serverSubmitNs = append(serverSubmitNs, rr.serverSubmitNs...)
		pageNs = append(pageNs, rr.pageNs...)
		pageLen = append(pageLen, rr.pageLen...)
		if c := rr.client; c != nil {
			encNs, encJobs, decNs, decDecs, decBytes = encNs+c.encNs, encJobs+c.encJobs, decNs+c.decNs, decDecs+c.decDecs, decBytes+c.decBytes
			postNs, pollNs, pollBytes = append(postNs, c.postNs...), append(pollNs, c.pollNs...), pollBytes+c.pollBytes
		}
		if w := rr.status[0].WAL; w != nil {
			walRecs, walFsyncs, walBytes = walRecs+float64(w.Appended), walFsyncs+float64(w.Fsyncs), walBytes+float64(w.Bytes)
			walP99 = append(walP99, float64(w.FsyncP99)/1e6)
		}
		if rs := rr.recorder; rs != nil {
			scrapes += float64(rs.Scrapes)
		}
	}
	v := rep.values
	lt := sumLayers(r.tr.snapshot())
	coreLayers(v, lt, sumSched(sch), dec)
	v["feed.at_share_pct"] = 100 * float64(lt.self[layerFeed]) / float64(cpu)
	gcOut := runtimeLayers(v, a, b, dec)

	rt := sumLayers(r.refTr.snapshot())
	clusterNs := float64(rt.self[layerReference]) / float64(len(ref.Outcomes))
	v["cluster.step_self_ns_per_decision"] = clusterNs
	parts := map[string]time.Duration{
		"server.submit": time.Duration(lt.self[layerSubmit]),
		"core.schedule": time.Duration(lt.self[layerSchedule]),
		"milp.solve":    time.Duration(lt.total[layerMILP]),
		"feed.at":       time.Duration(lt.self[layerFeed]),
		"cluster.step":  time.Duration(clusterNs * dec),
		"go.gc":         gcOut,
	}
	absent := func(why string, names ...string) {
		for _, m := range names {
			rep.absent[m] = why
		}
	}

	switch r.p.Surface {
	case "":
		parts["bench.submit_loop"] = time.Duration(lt.self["bench.submit"])
		serverSubmitNs = submitNs
		absent("in-process replay: no stream protocol", "wire.encode_ns_per_job", "wire.decode_ns_per_decision", "wire.bytes_per_decision")
		absent("in-process replay: no HTTP", "http.post_ns_p99", "http.poll_ns_p99", "http.bytes_per_decision")
	case "stream":
		parts["server.decisions_page"] = time.Duration(lt.total[layerPage])
		parts["wire.client_codec"] = time.Duration(encNs + decNs)
		v["wire.encode_ns_per_job"] = float64(encNs) / float64(encJobs)
		v["wire.decode_ns_per_decision"] = float64(decNs) / float64(decDecs)
		v["wire.bytes_per_decision"] = float64(decBytes) / float64(decDecs)
		absent("stream workload: no HTTP", "http.post_ns_p99", "http.poll_ns_p99", "http.bytes_per_decision")
	case "http":
		parts["server.decisions_page"] = time.Duration(lt.total[layerPage])
		v["http.post_ns_p99"] = quantile(floats(postNs), 0.99)
		v["http.poll_ns_p99"] = quantile(floats(pollNs), 0.99)
		v["http.bytes_per_decision"] = float64(pollBytes) / dec
		absent("HTTP workload: no stream protocol", "wire.encode_ns_per_job", "wire.decode_ns_per_decision", "wire.bytes_per_decision")
		absent("the JSON handler calls Submit inside the request; see http.post_ns_p99", "server.submit_ns_p50", "server.submit_ns_p99")
	}
	if len(serverSubmitNs) > 0 {
		v["server.submit_ns_p50"] = quantile(floats(serverSubmitNs), 0.50)
		v["server.submit_ns_p99"] = quantile(floats(serverSubmitNs), 0.99)
	}
	v["server.decisions_page_ns_p99"] = quantile(floats(pageNs), 0.99)
	switch {
	case len(pageLen) > 0:
		v["server.decisions_per_page"] = float64(sum(pageLen)) / float64(len(pageLen))
	case len(pollNs) > 0:
		v["server.decisions_per_page"] = dec / float64(len(pollNs))
	}

	if r.p.Durable {
		v["wal.records_per_decision"] = walRecs / dec
		v["wal.fsyncs_per_1k_decisions"] = 1000 * walFsyncs / dec
		v["wal.bytes_per_decision"] = walBytes / dec
		v["wal.fsync_p99_ms"] = median(walP99)
		var gp []float64
		for _, rr := range traced {
			gp = append(gp, rr.gatherParseNs)
		}
		v["tsdb.scrapes_per_s"] = scrapes / wall.Seconds()
		v["tsdb.store_bytes"] = float64(traced[len(traced)-1].recorder.Bytes)
		v["obs.gather_parse_ns"] = median(gp)
		parts["tsdb.scrape"] = time.Duration(scrapes * median(gp))
	} else {
		absent("runs with the WAL off, as waterwised's defaults do", "wal.records_per_decision", "wal.fsyncs_per_1k_decisions", "wal.bytes_per_decision", "wal.fsync_p99_ms")
		absent("runs with the recorder off, as waterwised's defaults do", "tsdb.scrapes_per_s", "tsdb.store_bytes", "obs.gather_parse_ns")
	}

	if r.p.Shards > 0 {
		v["fleet.decisions_ns_per_decision"] = float64(lt.total[layerFleet]) / dec
		parts["fleet.decisions"] = time.Duration(lt.total[layerFleet])
		last := traced[len(traced)-1]
		var max, total float64
		for _, s := range last.status {
			d := float64(s.Decisions)
			total += d
			if d > max {
				max = d
			}
		}
		v["fleet.shard_skew_pct"] = 100 * (max/(total/float64(len(last.status))) - 1)
	} else {
		absent("single server: no fleet", "fleet.decisions_ns_per_decision", "fleet.shard_skew_pct")
	}
	ledger(rep, parts, cpu)
	wallPerDec := func(rs []*repResult) float64 {
		xs := make([]float64, len(rs))
		for i, rr := range rs {
			xs[i] = rr.wall.Seconds() / float64(rr.decided)
		}
		return median(xs)
	}
	v["ledger.tracing_overhead_pct"] = 100 * (wallPerDec(traced)/wallPerDec(plain) - 1)
	rep.ledger["tracing_overhead"] = "median traced vs untraced replay wall time per decision"
	rep.ledger["reference_cluster_self_ns_per_decision"] = clusterNs
}
