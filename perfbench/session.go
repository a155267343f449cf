package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/obs"
	"waterwise/internal/region"
	"waterwise/internal/server"
	"waterwise/internal/tsdb"
)

// servedSession is one constructed server with its loopback front end.
type servedSession struct {
	srv     *server.Server
	sched   *tracedScheduler
	lane    *lane
	backend *tracedBackend
	handler *tracedHandler
	stream  *server.StreamListener
	httpSrv *http.Server
	httpErr chan error
	addr    string
	walDir  string
}

// setupSession builds the environment, the server as waterwised builds
// it for a loopback workload, and its front end on a loopback port: the
// binary stream protocol or the HTTP API. With a tracer it wraps the
// feed, the scheduler and the front end. The caller starts the server's
// round loop.
func setupSession(p replayParams, hours, queueCap int, dir string, tr *tracer, i int) (*servedSession, error) {
	s := &servedSession{lane: newLane()}
	var owner map[string]*lane
	if tr != nil {
		owner = map[string]*lane{}
		for _, r := range region.Defaults() {
			owner[string(r.ID)] = s.lane
		}
	}
	env, err := newEnv(hours, owner)
	if err != nil {
		return nil, err
	}
	var sch cluster.Scheduler
	if sch, err = newScheduler(); err != nil {
		return nil, err
	}
	if tr != nil {
		s.sched = &tracedScheduler{inner: sch, tr: tr, lane: s.lane}
		sch = s.sched
	}
	cfg := server.Config{
		Env: env, Scheduler: sch, Tolerance: p.Tolerance, Round: time.Minute,
		QueueCap: queueCap, DecisionLogCap: queueCap,
	}
	if p.Durable {
		// waterwised -data-dir <fresh dir> -record-metrics
		// -slo availability:0.999,latency:0.99@250ms
		s.walDir = filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		cfg.DataDir = s.walDir
		slos := []tsdb.Objective{
			{Name: "availability", Target: 0.999, Bad: "waterwise_jobs_rejected_total", Good: "waterwise_jobs_accepted_total"},
			{Name: "latency", Target: 0.99, Family: "waterwise_decision_latency_seconds", ThresholdMs: 250},
		}
		for k := range slos {
			if err := slos[k].Validate(); err != nil {
				return nil, err
			}
		}
		cfg.Record = server.RecordConfig{Enable: true, MinInterval: 250 * time.Millisecond, SLOs: slos}
	}
	if s.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Stop()
		return nil, err
	}
	s.addr = ln.Addr().String()
	switch p.Surface {
	case "stream":
		var backend server.StreamBackend = s.srv
		if tr != nil {
			s.backend = &tracedBackend{StreamBackend: s.srv, tr: tr}
			backend = s.backend
		}
		s.stream = server.NewStreamListener(ln, backend, server.StreamOptions{})
	case "http":
		var h http.Handler = s.srv.Handler()
		if tr != nil {
			s.handler = &tracedHandler{inner: h, tr: tr}
			h = s.handler
		}
		s.httpSrv = &http.Server{Handler: h}
		s.httpErr = make(chan error, 1)
		go func() { s.httpErr <- s.httpSrv.Serve(ln) }()
	default:
		ln.Close()
		s.srv.Stop()
		return nil, fmt.Errorf("unknown surface %q", p.Surface)
	}
	return s, nil
}

// close stops the front end and the server and removes the WAL
// directory.
func (s *servedSession) close() {
	if s.stream != nil {
		s.stream.Close()
		s.stream = nil
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
		if err := <-s.httpErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: http:", err)
		}
		s.httpSrv = nil
	}
	s.srv.Stop()
	if s.walDir != "" {
		if err := os.RemoveAll(s.walDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
}

// gatherParseNs is one recorder scrape's cost, the median of a few:
// render the exposition and parse it back, as the recorder does.
func gatherParseNs(srv *server.Server) (float64, error) {
	var ns []float64
	for i := 0; i < 20; i++ {
		g0 := time.Now()
		if _, err := obs.ParseProm(srv.MetricsText()); err != nil {
			return 0, fmt.Errorf("parsing own exposition: %w", err)
		}
		ns = append(ns, float64(time.Since(g0).Nanoseconds()))
	}
	return median(ns), nil
}
