package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/feed"
	"waterwise/internal/milp"
	"waterwise/internal/server"
	"waterwise/internal/wire"
)

// Layer names. Spans carry these, and the per-layer metrics are named
// after them.
const (
	layerSubmit    = "server.submit"
	layerPage      = "server.decisions_page"
	layerSchedule  = "core.schedule"
	layerFeed      = "feed.at"
	layerMILP      = "milp.solve"
	layerFleet     = "fleet.decisions"
	layerPhase     = "bench.phase"
	layerReference = "bench.reference"
)

// span is one timed interval at a layer boundary. Hot per-call layers
// (feed.At, Submit in a replay) are not recorded one span per call:
// their calls are folded into one aggregate span under the enclosing
// span, with Count calls and End-Start their summed time.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Req    int64  `json:"req"`    // round index (Schedule) or a job id (ingest, pages)
	Lane   int    `json:"lane"`   // round loop (shard) the span ran on
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how the untraced runs go.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch).Nanoseconds()
}

// add records a finished span and returns its index.
func (t *tracer) add(s span) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// open records a span whose end is not yet known; close sets it.
func (t *tracer) open(name string, parent int32, lane int, req int64) int32 {
	if t == nil {
		return -1
	}
	return t.add(span{Name: name, Parent: parent, Lane: lane, Req: req, Start: t.ns(time.Now())})
}

func (t *tracer) close(i int32) {
	if t == nil || i < 0 {
		return
	}
	end := t.ns(time.Now())
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// aggregate records count calls totalling total under parent.
func (t *tracer) aggregate(name string, parent int32, lane int, count int64, total time.Duration) {
	if t == nil || count == 0 {
		return
	}
	t.mu.Lock()
	start := int64(0)
	if parent >= 0 {
		start = t.spans[parent].Start
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Lane: lane, Start: start, End: start + total.Nanoseconds(), Count: count})
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes sums each layer's total and self time over the spans: a
// span's self time is its duration minus its children's. Aggregate spans
// count their calls.
type layerTimes struct {
	total, self map[string]int64
	calls       map[string]int64
}

func sumLayers(spans []span) layerTimes {
	lt := layerTimes{total: map[string]int64{}, self: map[string]int64{}, calls: map[string]int64{}}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	for i, s := range spans {
		lt.total[s.Name] += s.dur()
		lt.self[s.Name] += s.dur() - child[i]
		if s.Count > 0 {
			lt.calls[s.Name] += s.Count
		} else {
			lt.calls[s.Name]++
		}
	}
	return lt
}

// lane is the per-round-loop state the scheduler and provider wrappers
// share: whether that loop's Schedule call is open, and the feed.At
// calls made inside and outside it.
type lane struct {
	inSchedule     atomic.Bool
	atIn, atInNs   atomic.Int64
	atOut, atOutNs atomic.Int64
	// parent is the span this loop's Schedule spans hang under.
	parent atomic.Int32
}

func newLane() *lane {
	l := &lane{}
	l.parent.Store(-1)
	return l
}

// tracedProvider wraps the environment's feed.Provider and times every At
// call. Shards share one provider, but each shard reads only the regions
// it owns, so the region key names the round loop that made the call:
// the call is a child of that loop's Schedule span while one is open,
// and is the cluster simulator's otherwise.
type tracedProvider struct {
	feed.Provider
	owner map[string]*lane
}

func (p *tracedProvider) At(key string, t time.Time) (feed.Sample, error) {
	t0 := time.Now()
	s, err := p.Provider.At(key, t)
	d := time.Since(t0).Nanoseconds()
	if l := p.owner[key]; l != nil {
		if l.inSchedule.Load() {
			l.atIn.Add(1)
			l.atInNs.Add(d)
		} else {
			l.atOut.Add(1)
			l.atOutNs.Add(d)
		}
	}
	return s, err
}

// schedStatser is what the WaterWise scheduler exposes beyond
// cluster.Scheduler; the wrapper forwards both so Status() keeps
// reporting solver statistics.
type schedStatser interface {
	SolverStats() milp.Stats
	Stats() (rounds, softened int)
}

// tracedScheduler wraps a cluster.Scheduler: one span per Schedule call
// (request id = round index), with the feed.At calls made inside it and
// the branch-and-bound wall time (the SolverStats delta) as children.
type tracedScheduler struct {
	inner  cluster.Scheduler
	tr     *tracer
	lane   *lane
	laneID int

	// Per-call records, owned by the round loop goroutine that calls
	// Schedule; read after the loop has stopped.
	rounds    int64
	durations []int64
	decided   int64
	backlog   int
	solver    milp.Stats // summed per-call deltas
	soft0     int
	soft0Set  bool
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) SolverStats() milp.Stats {
	if ss, ok := s.inner.(schedStatser); ok {
		return ss.SolverStats()
	}
	return milp.Stats{}
}

func (s *tracedScheduler) Stats() (rounds, softened int) {
	if ss, ok := s.inner.(schedStatser); ok {
		return ss.Stats()
	}
	return 0, 0
}

func (s *tracedScheduler) Schedule(ctx *cluster.Context) ([]cluster.Decision, error) {
	ss, hasStats := s.inner.(schedStatser)
	var before milp.Stats
	if hasStats {
		before = ss.SolverStats()
		if !s.soft0Set {
			_, s.soft0 = ss.Stats()
			s.soft0Set = true
		}
	}
	if len(ctx.Jobs) > s.backlog {
		s.backlog = len(ctx.Jobs)
	}
	in0, inNs0 := s.lane.atIn.Load(), s.lane.atInNs.Load()
	s.lane.inSchedule.Store(true)
	t0 := time.Now()
	dec, err := s.inner.Schedule(ctx)
	d := time.Since(t0)
	s.lane.inSchedule.Store(false)
	s.rounds++
	s.durations = append(s.durations, d.Nanoseconds())
	s.decided += int64(len(dec))
	var delta milp.Stats
	if hasStats {
		after := ss.SolverStats()
		delta = milp.Stats{
			Nodes: after.Nodes - before.Nodes, SimplexIters: after.SimplexIters - before.SimplexIters,
			WarmStarts: after.WarmStarts - before.WarmStarts, ColdStarts: after.ColdStarts - before.ColdStarts,
			Wall: after.Wall - before.Wall,
		}
		s.solver.Add(delta)
	}
	if s.tr != nil {
		start := s.tr.ns(t0)
		i := s.tr.add(span{Name: layerSchedule, Parent: s.lane.parent.Load(), Lane: s.laneID, Req: s.rounds - 1, Start: start, End: start + d.Nanoseconds()})
		s.tr.aggregate(layerFeed, i, s.laneID, s.lane.atIn.Load()-in0, time.Duration(s.lane.atInNs.Load()-inNs0))
		if delta.Wall > 0 {
			s.tr.aggregate(layerMILP, i, s.laneID, 1, delta.Wall)
		}
	}
	return dec, err
}

// softened reports the rounds the wrapped scheduler softened since the
// wrapper's first call.
func (s *tracedScheduler) softened() int {
	ss, ok := s.inner.(schedStatser)
	if !ok || !s.soft0Set {
		return 0
	}
	_, soft := ss.Stats()
	return soft - s.soft0
}

// tracedBackend wraps the stream listener's backend: one span per
// StreamSubmit (request id = job id) and per StreamDecisions page.
type tracedBackend struct {
	server.StreamBackend
	tr *tracer

	mu       sync.Mutex
	submitNs []int64
	pageNs   []int64
	pageLen  []int64
}

func (b *tracedBackend) StreamSubmit(spec server.JobSpec) (int, error) {
	t0 := time.Now()
	id, err := b.StreamBackend.StreamSubmit(spec)
	d := time.Since(t0).Nanoseconds()
	b.mu.Lock()
	b.submitNs = append(b.submitNs, d)
	b.mu.Unlock()
	start := b.tr.ns(t0)
	b.tr.add(span{Name: layerSubmit, Parent: -1, Req: int64(id), Start: start, End: start + d})
	return id, err
}

func (b *tracedBackend) StreamDecisions(since uint64, limit int, dst []wire.Decision) ([]wire.Decision, uint64) {
	n0 := len(dst)
	t0 := time.Now()
	out, next := b.StreamBackend.StreamDecisions(since, limit, dst)
	d := time.Since(t0).Nanoseconds()
	if got := len(out) - n0; got > 0 {
		// Empty polls of an idle log are the pusher's wait loop, not
		// decision delivery; only pages that carried decisions count.
		b.mu.Lock()
		b.pageNs = append(b.pageNs, d)
		b.pageLen = append(b.pageLen, int64(got))
		b.mu.Unlock()
		start := b.tr.ns(t0)
		b.tr.add(span{Name: layerPage, Parent: -1, Req: int64(out[n0].JobID), Start: start, End: start + d})
	}
	return out, next
}

// tracedHandler wraps the HTTP API: one span per POST /v1/jobs and per
// decision poll (request id -1: the handler does not parse the body).
type tracedHandler struct {
	inner http.Handler
	tr    *tracer

	mu     sync.Mutex
	pollNs []int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	d := time.Since(t0).Nanoseconds()
	name := ""
	switch r.URL.Path {
	case server.PathJobs:
		name = layerSubmit
	case server.PathDecisions:
		name = layerPage
		h.mu.Lock()
		h.pollNs = append(h.pollNs, d)
		h.mu.Unlock()
	default:
		return
	}
	start := h.tr.ns(t0)
	h.tr.add(span{Name: name, Parent: -1, Req: -1, Start: start, End: start + d})
}
