package server

import (
	"net/http"
	"runtime"
	"strconv"
	"time"

	"waterwise/internal/tsdb"
)

// Version identifies the build in waterwise_build_info; override at link
// time with -ldflags "-X waterwise/internal/server.Version=v1.2.3".
var Version = "dev"

// RecordConfig configures the metrics flight recorder: when enabled the
// server scrapes its own /metrics exposition at the end of each
// scheduling round into an in-process time-series store (internal/tsdb),
// making windowed rate/increase/quantile queries and burn-rate SLO alerts
// available over recorded history via /v1/query and /v1/alerts.
//
// Like the observability layer it is measurement only: recording never
// feeds back into scheduling (TestRecorderEquivalence pins this).
type RecordConfig struct {
	// Enable turns the recorder on.
	Enable bool
	// MemoryBudgetBytes bounds the compressed store (default 8 MiB);
	// oldest windows are evicted beyond it, counted in
	// waterwise_tsdb_evicted_chunks_total.
	MemoryBudgetBytes int
	// MinInterval floors the wall-clock spacing of scrapes, which run
	// inline on the round loop's goroutine (see tsdb.Config.MinInterval):
	// an accelerated run's rounds can outpace any scraper, and the floor
	// keeps recording at a few Hz instead of per round; rounds inside it
	// count in waterwise_tsdb_coalesced_rounds_total. Zero scrapes every
	// round, making recorded history deterministic round for round —
	// what scenarios and tests want.
	MinInterval time.Duration
	// SLOs arms the burn-rate alert engine (see tsdb.Objective).
	SLOs []tsdb.Objective
	// Logf receives alert transitions and scrape failures; nil disables.
	Logf func(format string, args ...any)
}

// NewRecorder builds a flight recorder over an exposition renderer —
// the server's own MetricsText, or the fleet gateway's.
func NewRecorder(cfg RecordConfig, gather func() []byte) (*tsdb.Recorder, error) {
	return tsdb.New(tsdb.Config{
		Gather:            gather,
		MemoryBudgetBytes: cfg.MemoryBudgetBytes,
		MinInterval:       cfg.MinInterval,
		Objectives:        cfg.SLOs,
		Logf:              cfg.Logf,
	})
}

// Recorder exposes the flight recorder for queries; nil when recording is
// disabled.
func (s *Server) Recorder() *tsdb.Recorder { return s.recorder }

// notifyRound runs the end-of-round hooks — the recorder scrape and the
// owner's OnRound callback. Called by the round loops with mu released:
// the recorder's gather path re-enters Status, and holding mu here would
// deadlock (and would bill scrape time to the scheduling lock). It then
// wakes Drain, so a drained server's recorded history holds its last
// round.
func (s *Server) notifyRound(rounds uint64) {
	if s.recorder == nil && s.cfg.OnRound == nil {
		return
	}
	if s.recorder != nil {
		s.recorder.Observe(rounds)
	}
	if s.cfg.OnRound != nil {
		s.cfg.OnRound(rounds)
	}
	s.mu.Lock()
	s.hooksPending = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// AppendBuildInfo renders the waterwise_build_info gauge: constant 1 with
// the build identity as labels, the standard Prometheus idiom for joining
// version metadata onto any other series.
func AppendBuildInfo(b []byte) []byte {
	b = append(b, "# HELP waterwise_build_info Build identity (constant 1; the labels carry the information).\n# TYPE waterwise_build_info gauge\n"...)
	b = append(b, "waterwise_build_info{version="...)
	b = strconv.AppendQuote(b, Version)
	b = append(b, ",goversion="...)
	b = strconv.AppendQuote(b, runtime.Version())
	b = append(b, ",gomaxprocs="...)
	b = strconv.AppendQuote(b, strconv.Itoa(runtime.GOMAXPROCS(0)))
	b = append(b, "} 1\n"...)
	return b
}

// QueryResponse is the GET /v1/query reply.
type QueryResponse struct {
	Series string `json:"series"`
	// Fn echoes the evaluated function: raw, rate, increase, or quantile.
	Fn string `json:"fn"`
	// Window and End are in rounds (End 0 = latest recorded).
	Window uint64 `json:"window,omitempty"`
	End    uint64 `json:"end,omitempty"`
	// Samples holds the raw series for fn=raw.
	Samples []tsdb.Sample `json:"samples,omitempty"`
	// Value holds the scalar result for rate/increase/quantile; Ok is
	// false when the window held no data.
	Value float64 `json:"value"`
	Ok    bool    `json:"ok"`
	Error string  `json:"error,omitempty"`
}

// AlertsResponse is the GET /v1/alerts reply.
type AlertsResponse struct {
	// Round is the newest recorded round the states are current as of.
	Round  uint64       `json:"round"`
	Firing int          `json:"firing"`
	Alerts []tsdb.Alert `json:"alerts"`
}

// QueryHandler builds the GET /v1/query handler over a recorder getter —
// shared by the single server and the fleet gateway. Parameters:
//
//	series  — series reference: a family name or name{label="v",...}
//	fn      — raw (default) | rate | increase | quantile
//	window  — window length in rounds (required for non-raw fns)
//	q       — quantile in [0,1] (fn=quantile)
//	end     — window end round (default: latest recorded)
//	from,to — raw-sample bounds (fn=raw)
func QueryHandler(rec func() *tsdb.Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			WriteJSON(w, http.StatusMethodNotAllowed, QueryResponse{Error: "GET only"})
			return
		}
		rr := rec()
		if rr == nil {
			WriteJSON(w, http.StatusNotFound, QueryResponse{Error: "recording disabled (enable with -record-metrics)"})
			return
		}
		q := r.URL.Query()
		resp := QueryResponse{Series: q.Get("series"), Fn: q.Get("fn")}
		if resp.Series == "" {
			WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "missing series parameter"})
			return
		}
		if resp.Fn == "" {
			resp.Fn = "raw"
		}
		parseU := func(name string) (uint64, bool) {
			v := q.Get(name)
			if v == "" {
				return 0, true
			}
			u, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad " + name})
				return 0, false
			}
			return u, true
		}
		var ok bool
		if resp.Window, ok = parseU("window"); !ok {
			return
		}
		if resp.End, ok = parseU("end"); !ok {
			return
		}
		if resp.Fn != "raw" && resp.Window == 0 {
			WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "window is required for " + resp.Fn})
			return
		}
		switch resp.Fn {
		case "raw":
			from, ok := parseU("from")
			if !ok {
				return
			}
			to, ok := parseU("to")
			if !ok {
				return
			}
			resp.Samples = rr.Query(resp.Series, from, to)
			resp.Ok = len(resp.Samples) > 0
		case "rate":
			resp.Value, resp.Ok = rr.Rate(resp.Series, resp.Window, resp.End)
		case "increase":
			resp.Value, resp.Ok = rr.Increase(resp.Series, resp.Window, resp.End)
		case "quantile":
			quant := 0.99
			if v := q.Get("q"); v != "" {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < 0 || f > 1 {
					WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "bad q"})
					return
				}
				quant = f
			}
			resp.Value, resp.Ok = rr.Quantile(resp.Series, quant, resp.Window, resp.End)
		default:
			WriteJSON(w, http.StatusBadRequest, QueryResponse{Error: "fn must be raw, rate, increase, or quantile"})
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// AlertsHandler builds the GET /v1/alerts handler over a recorder getter.
func AlertsHandler(rec func() *tsdb.Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			WriteJSON(w, http.StatusMethodNotAllowed, SubmitResponse{Error: "GET only"})
			return
		}
		rr := rec()
		if rr == nil {
			WriteJSON(w, http.StatusNotFound, SubmitResponse{Error: "recording disabled (enable with -record-metrics)"})
			return
		}
		alerts := rr.Alerts()
		firing := 0
		for _, a := range alerts {
			if a.Firing {
				firing++
			}
		}
		WriteJSON(w, http.StatusOK, AlertsResponse{Round: rr.LastRound(), Firing: firing, Alerts: alerts})
	}
}
