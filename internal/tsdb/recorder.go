// The recorder ties the store to a metrics exposition: at the end of a
// scheduler round (at most once per Config.MinInterval of wall time) it
// gathers the Prometheus text the server already serves, parses
// it with the strict in-repo parser, appends every sample at the round
// index, and re-evaluates the SLO engine. Scraping its own exposition —
// rather than reaching into internals — means anything rendered on
// /metrics is automatically queryable over time, including series added
// by future PRs.
package tsdb

import (
	"fmt"
	"sync"
	"time"

	"waterwise/internal/obs"
)

// Config configures a Recorder.
type Config struct {
	// Gather renders the exposition to scrape. Required. It is invoked
	// outside any scheduler lock (the round hooks guarantee this) but may
	// itself take status locks.
	Gather func() []byte
	// MemoryBudgetBytes bounds the compressed store; <= 0 means 8 MiB.
	MemoryBudgetBytes int
	// MinInterval floors the wall-clock spacing of scrapes: a round that
	// completes within MinInterval of the last scrape is not scraped
	// (counted as coalesced), and the next round past the floor is. An
	// accelerated daemon can run hundreds of rounds per second, and a
	// full gather+parse per round would eat the machine; a flight
	// recorder at a few Hz loses nothing an operator asks about. Zero
	// scrapes every round, making recorded history deterministic round
	// for round — what scenarios and tests want.
	MinInterval time.Duration
	// Objectives arms the SLO engine.
	Objectives []Objective
	// Logf receives alert transition and scrape-failure lines
	// (slog-compatible free-form); nil disables.
	Logf func(format string, args ...any)
}

// RecorderStats extends the store's accounting with scrape counters.
type RecorderStats struct {
	StoreStats
	// Scrapes counts completed scrapes.
	Scrapes uint64 `json:"scrapes"`
	// CoalescedRounds counts observed rounds left unscraped because they
	// fell inside MinInterval of the previous scrape — bounded overhead by
	// design, and visible rather than silent.
	CoalescedRounds uint64 `json:"coalesced_rounds"`
	// ParseErrors counts scrapes dropped because the exposition failed
	// the strict parser.
	ParseErrors uint64 `json:"parse_errors"`
	// LastRound is the newest recorded round.
	LastRound uint64 `json:"last_round"`
	// AlertsFiring is the number of currently-firing burn-rate alerts.
	AlertsFiring int `json:"alerts_firing"`
}

// Recorder is the flight recorder. Create with New, feed rounds with
// Observe, query via Store()/Alerts(), stop with Close.
type Recorder struct {
	cfg   Config
	store *Store

	obMu     sync.Mutex // serializes Observe callers (fleet shards race)
	lastSeen uint64     // newest round handed to Observe
	lastAt   time.Time  // wall time the last scrape finished
	skipped  bool       // lastSeen fell inside the floor, unscraped
	closed   bool

	// mu guards scrape state + engine. It is never held across Gather,
	// which re-enters Stats through the exposition's recorder block.
	mu          sync.Mutex
	lastScraped uint64
	scrapes     uint64
	coalesced   uint64
	parseErrors uint64
	engine      *sloEngine
}

// New builds a Recorder. The SLO objectives are validated here so a bad
// config fails at boot, not at first alert.
func New(cfg Config) (*Recorder, error) {
	if cfg.Gather == nil {
		return nil, fmt.Errorf("tsdb: Config.Gather is required")
	}
	engine, err := newSLOEngine(cfg.Objectives, cfg.Logf)
	if err != nil {
		return nil, err
	}
	return &Recorder{cfg: cfg, store: NewStore(cfg.MemoryBudgetBytes), engine: engine}, nil
}

// Observe notes that round `round` completed and scrapes it inline on the
// caller's goroutine unless the last scrape was less than MinInterval
// ago. Non-increasing rounds are ignored, so fleet shards can all report
// their own counts and the recorder tracks the maximum — the fleet's
// progress clock. Concurrent callers serialize here, so every scraped
// round is scraped once and in order.
func (r *Recorder) Observe(round uint64) {
	r.obMu.Lock()
	defer r.obMu.Unlock()
	if round <= r.lastSeen || r.closed {
		return
	}
	r.lastSeen = round
	r.skipped = r.cfg.MinInterval > 0 && time.Since(r.lastAt) < r.cfg.MinInterval
	if r.skipped {
		r.mu.Lock()
		r.coalesced++
		r.mu.Unlock()
		return
	}
	r.scrape(round)
	r.lastAt = time.Now()
}

// scrape gathers, parses, appends, and re-evaluates alerts at `round`.
func (r *Recorder) scrape(round uint64) {
	data := r.cfg.Gather()
	fams, err := obs.ParseProm(data)
	if err != nil {
		r.mu.Lock()
		r.parseErrors++
		r.mu.Unlock()
		if r.cfg.Logf != nil {
			r.cfg.Logf("tsdb scrape parse error round=%d err=%v", round, err)
		}
		return
	}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			r.store.Append(Key(s.Name, s.Labels), round, s.Value)
		}
	}
	r.mu.Lock()
	if round > r.lastScraped {
		r.lastScraped = round
	}
	r.scrapes++
	r.engine.evaluate(r.store, round)
	r.mu.Unlock()
}

// Close records the newest observed round if the floor left it
// unscraped, then stops recording: later Observe calls are ignored. The
// store stays queryable after Close.
func (r *Recorder) Close() {
	r.obMu.Lock()
	defer r.obMu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	if r.skipped {
		r.mu.Lock()
		r.coalesced--
		r.mu.Unlock()
		r.scrape(r.lastSeen)
	}
}

// Store exposes the underlying store for queries.
func (r *Recorder) Store() *Store { return r.store }

// Stats snapshots the recorder's accounting.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	s := RecorderStats{
		Scrapes:         r.scrapes,
		CoalescedRounds: r.coalesced,
		ParseErrors:     r.parseErrors,
		LastRound:       r.lastScraped,
		AlertsFiring:    r.engine.firing(),
	}
	r.mu.Unlock()
	s.StoreStats = r.store.Stats()
	return s
}

// Alerts snapshots the SLO alert states, sorted.
func (r *Recorder) Alerts() []Alert {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.engine.snapshot()
}

// Query returns raw samples of one series reference over [from, to].
func (r *Recorder) Query(ref string, from, to uint64) []Sample {
	return r.store.Query(ref, from, to)
}

// Increase delegates to the store's windowed counter growth (query.go).
func (r *Recorder) Increase(ref string, window, end uint64) (float64, bool) {
	return r.store.Increase(ref, window, end)
}

// Rate delegates to the store's per-round rate (query.go).
func (r *Recorder) Rate(ref string, window, end uint64) (float64, bool) {
	return r.store.Rate(ref, window, end)
}

// Quantile delegates to the store's windowed histogram quantile
// reconstruction (query.go).
func (r *Recorder) Quantile(ref string, q float64, window, end uint64) (float64, bool) {
	return r.store.QuantileOver(ref, q, window, end)
}

// LastRound is the newest recorded round.
func (r *Recorder) LastRound() uint64 { return r.store.LastRound() }

// AppendMetrics renders the recorder's own exposition block (tsdb
// accounting plus the alerts-firing gauge) with the given metric name
// prefix, in the same hand-rolled style as the rest of the exposition.
func (r *Recorder) AppendMetrics(b []byte, prefix string) []byte {
	st := r.Stats()
	gauge := func(name, help string, v float64) {
		b = append(b, fmt.Sprintf("# HELP %s%s %s\n# TYPE %s%s gauge\n%s%s %g\n",
			prefix, name, help, prefix, name, prefix, name, v)...)
	}
	counter := func(name, help string, v float64) {
		b = append(b, fmt.Sprintf("# HELP %s%s %s\n# TYPE %s%s counter\n%s%s %g\n",
			prefix, name, help, prefix, name, prefix, name, v)...)
	}
	gauge("tsdb_series", "Live series in the metrics flight recorder.", float64(st.Series))
	gauge("tsdb_bytes", "Approximate compressed bytes held by the flight recorder.", float64(st.Bytes))
	gauge("tsdb_budget_bytes", "Flight recorder memory budget.", float64(st.BudgetBytes))
	counter("tsdb_samples_total", "Samples appended to the flight recorder.", float64(st.Samples))
	counter("tsdb_evicted_chunks_total", "Oldest-window chunks evicted to stay under budget.", float64(st.EvictedChunks))
	counter("tsdb_evicted_samples_total", "Samples lost to chunk eviction.", float64(st.EvictedSamples))
	counter("tsdb_scrapes_total", "Completed round-clock scrapes.", float64(st.Scrapes))
	counter("tsdb_coalesced_rounds_total", "Rounds left unscraped because they completed within the recorder's minimum scrape interval.", float64(st.CoalescedRounds))
	counter("tsdb_parse_errors_total", "Scrapes dropped by the strict exposition parser.", float64(st.ParseErrors))
	gauge("alerts_firing", "Burn-rate SLO alerts currently firing.", float64(st.AlertsFiring))
	return b
}
