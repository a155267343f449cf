package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"waterwise"
	"waterwise/internal/cluster"
	"waterwise/internal/energy"
	"waterwise/internal/feed"
	"waterwise/internal/fleet"
	"waterwise/internal/region"
	"waterwise/internal/sched"
	"waterwise/internal/server"
	"waterwise/internal/trace"
	"waterwise/internal/tsdb"
)

// simStart anchors every workload in July 2023, the paper's data window.
var simStart = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

// replayParams sizes a whole-trace replay: the trace is queued up front,
// then drained on the accelerated clock.
type replayParams struct {
	Alibaba       bool    `json:"alibaba"`
	JobsPerDay    float64 `json:"jobs_per_day"`
	Hours         int     `json:"trace_hours"`
	DurationScale float64 `json:"duration_scale"`
	Tolerance     float64 `json:"tolerance"`
	// Shards > 0 serves the trace through a fleet of that many shards
	// with one consumer paging Fleet.Decisions while the shards drain;
	// 0 serves it through one server.
	Shards int `json:"shards"`
	// Surface serves the trace over loopback: "stream" (one
	// binary-protocol connection) or "http" (the JSON API, one connection
	// for submits and one for decision polls); "" calls the server in
	// process.
	Surface string `json:"surface,omitempty"`
	// Durable runs the server with waterwised's production flags: a WAL
	// with real fsync, -record-metrics and
	// -slo availability:0.999,latency:0.99@250ms.
	Durable bool `json:"durable,omitempty"`
}

// minReps is the fewest replays a run makes, however short --seconds;
// a traced run makes minTracedReps, half of them traced.
const (
	minReps       = 3
	minTracedReps = 4
)

// newScheduler builds the scheduler waterwised builds with its default
// flags: λ_CO2 = λ_H2O = 0.5, one branch-and-bound worker, cross-round
// warm start on.
func newScheduler() (cluster.Scheduler, error) {
	return waterwise.NewScheduler(waterwise.SchedulerConfig{
		LambdaCarbon: 0.5, LambdaWater: 0.5,
		SolverWorkers: 1, CrossRoundWarmStart: true,
	})
}

// envSeed is waterwised's default -seed. Every workload runs in the same
// synthetic world; the workload seed varies the jobs.
const envSeed = 7

// newEnv synthesizes the five paper regions' grid and weather series.
// With lanes it builds the same synthetic provider region.NewEnvironment
// builds, wrapped to time every feed.At call.
func newEnv(hours int, lanes map[string]*lane) (*region.Environment, error) {
	regions := region.Defaults()
	if lanes == nil {
		return region.NewEnvironment(regions, energy.Table, simStart, hours, envSeed)
	}
	specs := make([]feed.SyntheticRegion, len(regions))
	for i, r := range regions {
		specs[i] = feed.SyntheticRegion{Key: string(r.ID), Grid: r.Grid, Climate: r.Climate}
	}
	prov, err := feed.NewSynthetic(specs, simStart, hours, envSeed)
	if err != nil {
		return nil, err
	}
	return region.NewEnvironmentWithProvider(regions, energy.Table, simStart, hours, &tracedProvider{Provider: prov, owner: lanes})
}

// genTrace generates the workload's trace from the seed, quantized to
// milliseconds so float-seconds job specs map back to the same instants.
func genTrace(p replayParams, seed int64) ([]*trace.Job, error) {
	cfg := trace.Config{
		Start: simStart, Duration: time.Duration(p.Hours) * time.Hour,
		JobsPerDay: p.JobsPerDay, DurationScale: p.DurationScale, Seed: seed + 1,
	}
	for _, r := range region.Defaults() {
		cfg.Regions = append(cfg.Regions, r.ID)
	}
	var jobs []*trace.Job
	var err error
	if p.Alibaba {
		// Job attributes from the Alibaba-like generator, with headroom,
		// re-timed onto a fixed burst schedule below.
		cfg.JobsPerDay *= 1.5
		if jobs, err = trace.GenerateAlibabaLike(cfg); err != nil {
			return nil, err
		}
		jobs = burstyArrivals(jobs, p, seed)
	} else if jobs, err = trace.GenerateBorgLike(cfg); err != nil {
		return nil, err
	}
	for _, j := range jobs {
		j.Submit = j.Submit.Truncate(time.Millisecond)
		j.Duration = j.Duration.Truncate(time.Millisecond)
		j.EstDuration = j.EstDuration.Truncate(time.Millisecond)
	}
	return jobs, nil
}

// burstyArrivals gives the jobs Poisson arrival instants whose rate follows
// the Alibaba-like generator's levels — a burst state at 4x the calm rate,
// active 20% of the time, with a mean burst of 10 minutes, under the
// diurnal curve — but on a fixed schedule: 10 burst minutes in every 50.
// The generator draws the burst pattern from its seed, and how long its
// longest bursts run sets the backlog, so throughput differed by ±15%
// between seeds; here the seed varies the arrivals and jobs, not the
// bursts. Jobs beyond the schedule's count are dropped.
func burstyArrivals(pool []*trace.Job, p replayParams, seed int64) []*trace.Job {
	const (
		burstMult  = 4.0
		burstEvery = 50
		burstLen   = 10
	)
	calm := p.JobsPerDay / (24 * 60) / (1 - 0.2 + 0.2*burstMult) // per minute
	rng := rand.New(rand.NewSource(seed))
	var out []*trace.Job
	for m := 0; m < p.Hours*60; m++ {
		t := simStart.Add(time.Duration(m) * time.Minute)
		hod := float64(t.Hour()) + float64(t.Minute())/60
		lambda := calm * (1 + 0.5*math.Cos(2*math.Pi*(hod-15)/24))
		if m%burstEvery < burstLen {
			lambda *= burstMult
		}
		for u := rng.ExpFloat64() / lambda; u < 1 && len(out) < len(pool); u += rng.ExpFloat64() / lambda {
			j := *pool[len(out)]
			j.ID = len(out)
			j.Submit = t.Add(time.Duration(u * float64(time.Minute)))
			out = append(out, &j)
		}
	}
	return out
}

func specOf(j *trace.Job) server.JobSpec {
	id := j.ID
	return server.JobSpec{
		ID: &id, Benchmark: j.Benchmark, Home: j.Home, Submit: j.Submit,
		DurationSec: j.Duration.Seconds(), EnergyKWh: float64(j.Energy),
		EstDurationSec: j.EstDuration.Seconds(), EstEnergyKWh: float64(j.EstEnergy),
	}
}

// placement is what the correctness gate compares per job.
type placement struct {
	job           int
	region        region.ID
	start, finish int64
	carbon, water float64
}

// digest hashes placements in job-id order.
func digest(ps []placement) [32]byte {
	sort.Slice(ps, func(i, j int) bool { return ps[i].job < ps[j].job })
	h := sha256.New()
	var b [8]byte
	for _, p := range ps {
		binary.LittleEndian.PutUint64(b[:], uint64(p.job))
		h.Write(b[:])
		h.Write([]byte(p.region))
		binary.LittleEndian.PutUint64(b[:], uint64(p.start))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(p.finish))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.carbon))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.water))
		h.Write(b[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func resultPlacements(r *cluster.Result) []placement {
	out := make([]placement, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = placement{
			job: o.Job.ID, region: o.Region, start: o.Start.UnixNano(), finish: o.Finish.UnixNano(),
			carbon: float64(o.Compute.Carbon() + o.Comm.Carbon()),
			water:  float64(o.Compute.Water() + o.Comm.Water()),
		}
	}
	return out
}

func decisionPlacement(d server.Decision) placement {
	return placement{
		job: d.JobID, region: d.Region, start: d.Start.UnixNano(), finish: d.Finish.UnixNano(),
		carbon: d.CarbonG, water: d.WaterL,
	}
}

// repResult is what one replay measured and served.
type repResult struct {
	traced     bool
	setup      float64       // median set-up seconds
	wall       time.Duration // first submit to the last decision
	decided    int
	failed     int
	submitNs   []int64 // per job: the time to its acknowledgement; kept by traced replays only
	ackMs      tails   // of submitNs, in ms
	gapMs      tails   // per decision: the wall time of the round that made it
	peakHeapMB float64
	rt0, rt1   runtimeSample
	digest     [32]byte
	carbon     float64 // served totals, from Result()
	water      float64
	violation  float64         // % of jobs past their delay tolerance
	service    float64         // mean normalized service time
	status     []server.Status // per shard (one for a single server)
	partitions [][]region.ID
	pageNs     []int64 // decision page reads (server log, or the fleet consumer)
	pageLen    []int64
	client     *clientRec // what a loopback client measured
	// serverSubmitNs times StreamSubmit inside the server (traced stream
	// replays; submitNs is then the client's frame round trip).
	serverSubmitNs []int64
	recorder       *tsdb.RecorderStats
	// gatherParseNs is one recorder scrape's cost: render the exposition
	// and parse it back.
	gatherParseNs float64
	sched         []*tracedScheduler
	problems      []string
}

// replayRun drives one workload's replays and reference.
type replayRun struct {
	p     replayParams
	jobs  []*trace.Job
	specs []server.JobSpec
	hours int
	dir   string  // scratch directory for WAL directories
	tr    *tracer // served spans of traced reps
	refTr *tracer // reference-pass spans
}

// replayBatch is the jobs per Submit frame or POST of a loopback replay.
const replayBatch = 512

// setupsPerRep is how many times a replay builds its server; set-up time
// is the median, which one sample of a sub-millisecond build is not.
const setupsPerRep = 5

// served is one built server or fleet with the wrappers it runs under.
type served struct {
	srv   *server.Server
	fl    *fleet.Fleet
	sess  *servedSession // the server behind a loopback surface
	sched []*tracedScheduler
	lanes []*lane
}

func (sv *served) stop() {
	switch {
	case sv.sess != nil:
		sv.sess.close()
	case sv.srv != nil:
		sv.srv.Stop()
	default:
		sv.fl.Stop()
	}
}

// setup synthesizes the environment and builds the server (or fleet) the
// way waterwised does; with a tracer it wraps the feed and schedulers.
func (r *replayRun) setup(tr *tracer, k int) (*served, error) {
	sv := &served{}
	if r.p.Surface != "" {
		sess, err := setupSession(r.p, r.hours, len(r.specs)+1, r.dir, tr, k)
		if err != nil {
			return nil, err
		}
		sv.sess, sv.srv = sess, sess.srv
		if tr != nil {
			sv.sched, sv.lanes = []*tracedScheduler{sess.sched}, []*lane{sess.lane}
		}
		return sv, nil
	}
	lanesN := 1
	if r.p.Shards > 0 {
		lanesN = r.p.Shards
	}
	var owner map[string]*lane
	if tr != nil {
		owner = map[string]*lane{}
		for i := 0; i < lanesN; i++ {
			sv.lanes = append(sv.lanes, newLane())
		}
	}
	wrap := func(laneID int, s cluster.Scheduler) cluster.Scheduler {
		if tr == nil {
			return s
		}
		ts := &tracedScheduler{inner: s, tr: tr, lane: sv.lanes[laneID], laneID: laneID}
		sv.sched = append(sv.sched, ts)
		return ts
	}
	env, err := newEnv(r.hours, owner)
	if err != nil {
		return nil, err
	}
	if r.p.Shards == 0 {
		s, err := newScheduler()
		if err != nil {
			return nil, err
		}
		sv.srv, err = server.New(server.Config{
			Env: env, Scheduler: wrap(0, s), Tolerance: r.p.Tolerance, Round: time.Minute,
			QueueCap: len(r.specs) + 1, DecisionLogCap: len(r.specs),
		})
		if err != nil {
			return nil, err
		}
		for _, id := range env.IDs() {
			if owner != nil {
				owner[string(id)] = sv.lanes[0]
			}
		}
		return sv, nil
	}
	sv.fl, err = fleet.New(fleet.Config{
		Env: env, Shards: r.p.Shards, Tolerance: r.p.Tolerance, Round: time.Minute,
		QueueCap: len(r.specs) + 1, DecisionLogCap: len(r.specs) + 1,
		NewScheduler: func(shard int, _ []region.ID) (cluster.Scheduler, error) {
			s, err := newScheduler()
			if err != nil {
				return nil, err
			}
			return wrap(shard, s), nil
		},
	})
	if err != nil {
		return nil, err
	}
	for s, part := range sv.fl.Partitions() {
		for _, id := range part {
			if owner != nil {
				owner[string(id)] = sv.lanes[s]
			}
		}
	}
	return sv, nil
}

// rep replays the whole trace once: set up, queue every job, start the
// clock, and drain. The timed window runs from the first Submit to Drain
// returning.
func (r *replayRun) rep(traced bool, idx int) (*repResult, error) {
	res := &repResult{traced: traced}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	runtime.GC()
	var sv *served
	var setups []float64
	for k := 0; k < setupsPerRep; k++ {
		if sv != nil {
			sv.stop()
		}
		t0 := time.Now()
		var err error
		if sv, err = r.setup(tr, k); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setup = median(setups)
	res.sched = sv.sched
	srv, fl, lanes := sv.srv, sv.fl, sv.lanes
	lanesN := 1
	if fl != nil {
		lanesN = fl.Shards()
	}

	res.rt0 = readRuntime()
	start := time.Now()
	phase := tr.open(layerPhase, -1, -1, int64(idx))
	submitSpan := tr.open("bench.submit", phase, -1, int64(idx))
	var c *clientRec
	var sc *streamClient
	var hc *httpClient
	var err error
	switch r.p.Surface {
	case "":
		res.submitNs = make([]int64, len(r.specs))
		for i, spec := range r.specs {
			s0 := time.Now()
			var err error
			if srv != nil {
				_, err = srv.Submit(spec)
			} else {
				_, err = fl.Submit(spec)
			}
			res.submitNs[i] = time.Since(s0).Nanoseconds()
			if err != nil {
				res.failed++
				res.problems = append(res.problems, fmt.Sprintf("submit job %d: %v", *spec.ID, err))
			}
		}
		tr.aggregate(layerSubmit, submitSpan, -1, int64(len(r.specs)), time.Duration(sum(res.submitNs)))
	default:
		// Over a surface each batch goes out as one Submit frame or POST,
		// one in flight; a job's acknowledgement is its batch's reply.
		c = newClientRec(len(r.specs))
		var send func(i, j int) error
		if r.p.Surface == "stream" {
			if sc, err = dialStream(sv.sess.addr, c, false); err != nil {
				return nil, err
			}
			defer sc.close()
			send = func(i, j int) error {
				if err := sc.send(r.specs, i, j); err != nil {
					return err
				}
				sc.awaitReplies(int64(j))
				return nil
			}
		} else {
			hc = newHTTPClient(sv.sess.addr, c)
			defer hc.tr.CloseIdleConnections()
			send = func(i, j int) error { return hc.post(r.specs, i, j) }
		}
		res.submitNs = make([]int64, len(r.specs))
		for i := 0; i < len(r.specs) && err == nil; i += replayBatch {
			j := min(i+replayBatch, len(r.specs))
			s0 := time.Now()
			err = send(i, j)
			ack := time.Since(s0).Nanoseconds()
			for k := i; k < j; k++ {
				res.submitNs[k] = ack
			}
		}
	}
	tr.close(submitSpan)
	if err != nil {
		return nil, fmt.Errorf("%s submit: %w", r.p.Surface, err)
	}
	if c != nil {
		for _, code := range c.code {
			if code != codeAccepted {
				res.failed++
			}
		}
	}

	drainSpans := make([]int32, lanesN)
	for i := range drainSpans {
		drainSpans[i] = tr.open("bench.drain", phase, i, int64(idx))
		if traced {
			lanes[i].parent.Store(drainSpans[i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var consumed []fleet.Decision
	var consumer sync.WaitGroup
	drainStart := time.Now()
	switch {
	case fl != nil:
		consumer.Add(1)
		go func() {
			defer consumer.Done()
			consumed = r.consume(ctx, fl, res, tr, phase)
		}()
		fl.Start()
		err = fl.Drain(ctx)
	case c != nil:
		// Drain, then read every decision back over the surface: the
		// window closes when the last one reaches the client.
		srv.Start()
		if err = srv.Drain(ctx); err == nil {
			err = r.deliver(sv.sess.addr, c, hc)
		}
	default:
		srv.Start()
		err = srv.Drain(ctx)
	}
	res.wall = time.Since(start)
	for _, d := range drainSpans {
		tr.close(d)
	}
	tr.close(phase)
	res.rt1 = readRuntime()
	res.peakHeapMB = liveHeapMB()
	if err != nil {
		cancel()
		consumer.Wait()
		return nil, fmt.Errorf("drain: %w", err)
	}
	for i, l := range lanes {
		tr.aggregate(layerFeed, drainSpans[i], i, l.atOut.Load(), time.Duration(l.atOutNs.Load()))
	}

	// Everything below is outside the timed window.
	var served []server.Decision
	var result *cluster.Result
	if c != nil {
		served = c.decisions
		res.client = c
		if b := sv.sess.backend; b != nil {
			res.serverSubmitNs, res.pageNs, res.pageLen = b.submitNs, b.pageNs, b.pageLen
		}
		if h := sv.sess.handler; h != nil {
			res.pageNs = h.pollNs
		}
		res.status = []server.Status{srv.Status()}
		res.partitions = [][]region.ID{srv.Regions()}
		if rec := srv.Recorder(); rec != nil {
			rs := rec.Stats()
			res.recorder = &rs
			if res.gatherParseNs, err = gatherParseNs(srv); err != nil {
				res.problems = append(res.problems, err.Error())
			}
		}
		result = srv.Result()
		sv.stop()
		res.gapMs = tailsOf(roundGaps(served, func(int) int { return 0 }, drainStart))
	} else if srv != nil {
		read := tr.open("bench.readlog", -1, 0, int64(idx))
		var since uint64
		for {
			p0 := time.Now()
			page, _ := srv.DecisionsPage(since, 4096)
			d := time.Since(p0).Nanoseconds()
			if len(page) == 0 {
				break
			}
			res.pageNs = append(res.pageNs, d)
			res.pageLen = append(res.pageLen, int64(len(page)))
			s := tr.ns(p0)
			tr.add(span{Name: layerPage, Parent: read, Req: int64(page[0].JobID), Start: s, End: s + d})
			served = append(served, page...)
			since = page[len(page)-1].Seq
		}
		tr.close(read)
		res.status = []server.Status{srv.Status()}
		res.partitions = [][]region.ID{srv.Regions()}
		result = srv.Result()
		srv.Stop()
		res.gapMs = tailsOf(roundGaps(served, func(int) int { return 0 }, drainStart))
	} else {
		consumer.Wait()
		st := fl.Status()
		for _, ss := range st.ShardStatus {
			res.status = append(res.status, ss.Status)
		}
		if st.Lost != 0 {
			res.problems = append(res.problems, fmt.Sprintf("fleet lost %d decisions", st.Lost))
		}
		res.partitions = fl.Partitions()
		result, err = fl.Result()
		fl.Stop()
		if err != nil {
			return nil, err
		}
		served = make([]server.Decision, len(consumed))
		for i, d := range consumed {
			served[i] = d.Decision
		}
		res.gapMs = tailsOf(roundGaps(served, func(i int) int { return consumed[i].Shard }, drainStart))
	}
	res.problems = append(res.problems, checkLog(served, len(r.specs)-res.failed)...)
	res.decided = len(served)
	ps := make([]placement, len(served))
	for i, d := range served {
		ps[i] = decisionPlacement(d)
	}
	res.digest = digest(ps)
	res.carbon = float64(result.TotalCarbon())
	res.water = float64(result.TotalWater())
	res.violation = 100 * result.ViolationRate()
	res.service = result.MeanNormalizedService()
	if len(result.Unscheduled) > 0 {
		res.failed += len(result.Unscheduled)
		res.problems = append(res.problems, fmt.Sprintf("%d jobs unscheduled", len(result.Unscheduled)))
	}
	ack := floats(res.submitNs)
	for i := range ack {
		ack[i] /= 1e6
	}
	res.ackMs = tailsOf(ack)
	// A run keeps every replay's result. Drop what grows with the trace,
	// so that later replays' peak_heap_mb does not count it.
	if !traced {
		res.submitNs = nil
	}
	if c != nil {
		c.decisions = nil
	}
	return res, nil
}

// deliver reads every decision of a drained server back to the client:
// over a fresh stream connection subscribed from the start of the log,
// or by paging GET /v1/decisions.
func (r *replayRun) deliver(addr string, c *clientRec, hc *httpClient) error {
	all := func() bool { return c.decided.Load() >= c.accepted.Load() }
	if hc != nil {
		for !all() {
			n, err := hc.poll()
			if err != nil {
				return err
			}
			if n == 0 {
				return fmt.Errorf("decision log ended after %d of %d decisions", c.decided.Load(), c.accepted.Load())
			}
		}
		return nil
	}
	sc, err := dialStream(addr, c, true)
	if err != nil {
		return err
	}
	waitFor(all, sc.readDone, time.Minute)
	return sc.close()
}

// consume pages the fleet's merged decision stream while the shards
// drain, until every job's decision has been read.
func (r *replayRun) consume(ctx context.Context, fl *fleet.Fleet, res *repResult, tr *tracer, phase int32) []fleet.Decision {
	sp := tr.open("bench.consume", phase, -1, 0)
	defer tr.close(sp)
	var out []fleet.Decision
	var since uint64
	for len(out) < len(r.specs) && ctx.Err() == nil {
		p0 := time.Now()
		page := fl.Decisions(since, 4096)
		d := time.Since(p0).Nanoseconds()
		if len(page) == 0 {
			time.Sleep(time.Millisecond)
			continue
		}
		res.pageNs = append(res.pageNs, d)
		res.pageLen = append(res.pageLen, int64(len(page)))
		s := tr.ns(p0)
		tr.add(span{Name: layerFleet, Parent: sp, Req: int64(page[0].JobID), Start: s, End: s + d})
		out = append(out, page...)
		since = page[len(page)-1].Seq
		if fl.Err() != nil {
			break
		}
	}
	return out
}

// checkLog verifies a served decision log: seqs dense from 1 and every
// accepted job decided exactly once.
func checkLog(ds []server.Decision, accepted int) []string {
	var out []string
	seen := make(map[int]bool, len(ds))
	for i, d := range ds {
		if d.Seq != uint64(i+1) {
			out = append(out, fmt.Sprintf("decision %d has seq %d: log not dense", i, d.Seq))
			break
		}
		if seen[d.JobID] {
			out = append(out, fmt.Sprintf("job %d decided twice", d.JobID))
			break
		}
		seen[d.JobID] = true
	}
	if len(ds) != accepted {
		out = append(out, fmt.Sprintf("%d decisions for %d accepted jobs", len(ds), accepted))
	}
	return out
}

// roundGaps gives each decision the wall time of the round that made it:
// the gap between its round's commit stamp (DecidedWall) and the previous
// round's on the same round loop, the first round measured from start.
func roundGaps(ds []server.Decision, laneOf func(int) int, start time.Time) []float64 {
	last := map[int]time.Time{}
	prevStamp := map[int]time.Time{}
	out := make([]float64, len(ds))
	for i, d := range ds {
		l := laneOf(i)
		if _, ok := last[l]; !ok {
			last[l] = start
			prevStamp[l] = start
		}
		if !d.DecidedWall.Equal(prevStamp[l]) {
			last[l] = prevStamp[l]
			prevStamp[l] = d.DecidedWall
		}
		out[i] = float64(d.DecidedWall.Sub(last[l]).Nanoseconds()) / 1e6
	}
	return out
}

// reference replays the trace offline through cluster.Run — per shard
// partition, merged with cluster.MergeResults for the fleet.
func (r *replayRun) reference(parts [][]region.ID, traced bool) (*cluster.Result, error) {
	var owner map[string]*lane
	var lanes []*lane
	if traced {
		owner = map[string]*lane{}
		lanes = make([]*lane, len(parts))
		for i, part := range parts {
			lanes[i] = newLane()
			for _, id := range part {
				owner[string(id)] = lanes[i]
			}
		}
	}
	env, err := newEnv(r.hours, owner)
	if err != nil {
		return nil, err
	}
	var sch []*tracedScheduler
	refSpan := r.refTr.open(layerReference, -1, -1, 0)
	var results []*cluster.Result
	for i, part := range parts {
		view, err := env.Partition(part...)
		if err != nil {
			return nil, err
		}
		in := map[region.ID]bool{}
		for _, id := range part {
			in[id] = true
		}
		var jobs []*trace.Job
		for _, j := range r.jobs {
			if in[j.Home] {
				jobs = append(jobs, j)
			}
		}
		s, err := newScheduler()
		if err != nil {
			return nil, err
		}
		if traced {
			ts := &tracedScheduler{inner: s, lane: lanes[i], laneID: i}
			sch = append(sch, ts)
			s = ts
		}
		res, err := cluster.Run(cluster.Config{Env: view, Tolerance: r.p.Tolerance, Tick: time.Minute}, s, jobs)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	r.refTr.close(refSpan)
	if traced {
		for i, ts := range sch {
			in, inNs := lanes[i].atIn.Load(), lanes[i].atInNs.Load()
			total := time.Duration(sum(ts.durations))
			r.refTr.mu.Lock()
			st := r.refTr.spans[refSpan].Start
			r.refTr.spans = append(r.refTr.spans, span{Name: layerSchedule, Parent: refSpan, Lane: i, Start: st, End: st + total.Nanoseconds(), Count: ts.rounds})
			si := int32(len(r.refTr.spans) - 1)
			r.refTr.mu.Unlock()
			r.refTr.aggregate(layerFeed, si, i, in, time.Duration(inNs))
			r.refTr.aggregate(layerMILP, si, i, ts.rounds, ts.solver.Wall)
			r.refTr.aggregate(layerFeed, refSpan, i, lanes[i].atOut.Load(), time.Duration(lanes[i].atOutNs.Load()))
		}
	}
	return cluster.MergeResults(results...)
}

// baseline runs the paper's home-region Baseline over the trace offline
// and returns its footprint totals, the base the savings are taken
// against.
func (r *replayRun) baseline() (carbon, water float64, err error) {
	env, err := newEnv(r.hours, nil)
	if err != nil {
		return 0, 0, err
	}
	base, err := cluster.Run(cluster.Config{Env: env, Tolerance: r.p.Tolerance, Tick: time.Minute}, sched.NewBaseline(), r.jobs)
	if err != nil {
		return 0, 0, err
	}
	if len(base.Outcomes) != len(r.jobs) {
		return 0, 0, fmt.Errorf("baseline placed %d of %d jobs", len(base.Outcomes), len(r.jobs))
	}
	return float64(base.TotalCarbon()), float64(base.TotalWater()), nil
}

// The workloads. borg-replay is the paper's scale (23k jobs/day, runtimes
// x0.3 for ~15% utilization, 5 regions x 35 servers, 50% tolerance)
// through one server; stream-durable and http-ingest serve a shorter
// trace of the same kind over loopback. alibaba-fleet is the bursty
// trace with runtimes /8.5 (the paper's Fig. 9/13 setup) at a rate whose
// backlog drains, through a 2-shard fleet. Its median job then runs
// about half a minute, so a 50% tolerance is shorter than one round: a
// job that waits a round is late, and the scheduler can move almost
// nothing (0.01% carbon saved, water slightly worse, 83% of jobs late).
// At 400% it has a few rounds to work with. The trace runs 96 hours:
// over 48 the water saving was 0.75% and varied by 9% of itself between
// seeds, over 96 it is 2.2% and varies by 2%, so it can be gated tightly.
var (
	borgReplay = replayParams{
		JobsPerDay: 23000, Hours: 96, DurationScale: 0.3, Tolerance: 0.5,
	}
	streamDurable = replayParams{
		JobsPerDay: 23000, Hours: 48, DurationScale: 0.3, Tolerance: 0.5,
		Surface: "stream", Durable: true,
	}
	httpIngest = replayParams{
		JobsPerDay: 23000, Hours: 48, DurationScale: 0.3, Tolerance: 0.5,
		Surface: "http",
	}
	alibabaFleet = replayParams{
		Alibaba: true, JobsPerDay: 80000, Hours: 96, DurationScale: 0.3 / 8.5, Tolerance: 4,
		Shards: 2,
	}
)

func runReplay(p replayParams, o options) (*report, error) {
	jobs, err := genTrace(p, o.seed)
	if err != nil {
		return nil, err
	}
	r := &replayRun{p: p, jobs: jobs, hours: p.Hours + 72}
	r.specs = make([]server.JobSpec, len(jobs))
	for i, j := range jobs {
		r.specs[i] = specOf(j)
	}
	if p.Durable {
		if r.dir, err = os.MkdirTemp(o.out, "wal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(r.dir)
	}
	baseCarbon, baseWater, err := r.baseline()
	if err != nil {
		return nil, err
	}
	least := minReps
	if o.trace {
		// Traced and untraced replays alternate, so the run also measures
		// what tracing costs.
		r.tr, r.refTr = newTracer(), newTracer()
		least = minTracedReps
	}
	var reps []*repResult
	start := time.Now()
	for i := 0; len(reps) < least || time.Since(start).Seconds() < o.seconds; i++ {
		rr, err := r.rep(o.trace && i%2 == 1, i)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rr)
	}

	refT0 := time.Now()
	ref, err := r.reference(reps[0].partitions, o.trace)
	if err != nil {
		return nil, err
	}
	refWall := time.Since(refT0)
	rep := &report{correct: true, values: map[string]float64{}, absent: map[string]string{}, params: p, ledger: map[string]any{}}
	refDigest := digest(resultPlacements(ref))
	for i, rr := range reps {
		rep.attempted += int64(len(r.specs))
		rep.failed += int64(rr.failed)
		for _, pr := range rr.problems {
			rep.problems = append(rep.problems, fmt.Sprintf("replay %d: %s", i, pr))
		}
		if rr.digest != refDigest {
			rep.problems = append(rep.problems, fmt.Sprintf("replay %d: decision digest differs from the offline reference", i))
		}
		if rr.carbon != float64(ref.TotalCarbon()) || rr.water != float64(ref.TotalWater()) {
			rep.problems = append(rep.problems, fmt.Sprintf("replay %d: footprint totals %g g / %g L, reference %g g / %g L",
				i, rr.carbon, rr.water, float64(ref.TotalCarbon()), float64(ref.TotalWater())))
		}
	}
	rep.correct = len(rep.problems) == 0

	var plain []*repResult
	for _, rr := range reps {
		if !rr.traced {
			plain = append(plain, rr)
		}
	}
	per := func(f func(*repResult) float64) float64 {
		xs := make([]float64, len(plain))
		for i, rr := range plain {
			xs[i] = f(rr)
		}
		return median(xs)
	}
	v := rep.values
	v["setup_s"] = per(func(rr *repResult) float64 { return rr.setup })
	v["decisions_per_s"] = per(func(rr *repResult) float64 { return float64(rr.decided) / rr.wall.Seconds() })
	v["decision_latency_p50_ms"] = per(func(rr *repResult) float64 { return rr.gapMs.p50 })
	v["decision_latency_p90_ms"] = per(func(rr *repResult) float64 { return rr.gapMs.p90 })
	v["ack_latency_p50_ms"] = per(func(rr *repResult) float64 { return rr.ackMs.p50 })
	last := reps[len(reps)-1]
	v["carbon_saving_pct"] = 100 * (1 - last.carbon/baseCarbon)
	v["water_saving_pct"] = 100 * (1 - last.water/baseWater)
	v["violation_pct"] = last.violation
	v["service_time_norm"] = last.service
	v["peak_heap_mb"] = per(func(rr *repResult) float64 { return rr.peakHeapMB })
	fmt.Printf("replays: %d (%d jobs each), reference %.2fs; latency samples per replay: %d decisions, %d acknowledgements\n",
		len(reps), len(r.specs), refWall.Seconds(), len(r.specs), len(r.specs))
	// The tails are printed, not gated: on a small shared VM they
	// measure host stalls more than the program.
	fmt.Printf("ungated tails: decision latency p99 %.4g ms, ack latency p90 %.4g ms, p99 %.4g ms\n",
		per(func(rr *repResult) float64 { return rr.gapMs.p99 }),
		per(func(rr *repResult) float64 { return rr.ackMs.p90 }),
		per(func(rr *repResult) float64 { return rr.ackMs.p99 }))
	if o.trace {
		replayLayers(rep, r, reps, ref)
		for name, t := range map[string]*tracer{"spans": r.tr, "reference.spans": r.refTr} {
			if err := t.write(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.%s.jsonl", o.workload, o.seed, name))); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}
