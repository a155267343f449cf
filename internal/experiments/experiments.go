// Package experiments regenerates every table and figure of the WaterWise
// paper's evaluation (Section 3 motivation and Section 6 results), mapping
// each to the modules that implement it — see DESIGN.md's per-experiment
// index. Each experiment returns a Report of plain-text tables whose rows
// mirror the series the paper plots.
//
// Absolute numbers differ from the paper (the substrate is a calibrated
// simulator, not the authors' 175-node AWS testbed); the shapes — who wins,
// approximate factors, orderings, crossovers — are the reproduction target,
// and EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"waterwise/internal/cluster"
	"waterwise/internal/core"
	"waterwise/internal/energy"
	"waterwise/internal/footprint"
	"waterwise/internal/metrics"
	"waterwise/internal/region"
	"waterwise/internal/trace"
)

// Scale sizes an experiment run. Quick (the default) keeps every experiment
// in CI-friendly seconds; Paper replays the full ten-day, ~230k-job setup.
type Scale struct {
	// Days of trace replay.
	Days int
	// JobsPerDay is the Borg-like arrival rate; the Alibaba-like trace
	// multiplies it by the paper's 8.5x factor.
	JobsPerDay float64
	// DurationScale shrinks job runtimes (used by Paper scale to keep the
	// reported ~15% cluster utilization at 230k jobs/10 days).
	DurationScale float64
	// Seed fixes all randomness.
	Seed int64
	// Tick is the scheduling cadence.
	Tick time.Duration
}

// Quick is the default scale: one simulated day, ~9k jobs, with job
// runtimes halved relative to the profile means so that inter-region
// transfer latency is a meaningful fraction of execution time — that ratio
// is what the delay-tolerance constraint (Eq. 11) prices, and the paper's
// tolerance sensitivity (Fig. 5) depends on it binding at 25%.
func Quick() Scale {
	return Scale{Days: 1, JobsPerDay: 9000, DurationScale: 0.5, Seed: 7, Tick: 30 * time.Second}
}

// Paper is the full-scale setup: ten days at 23k jobs/day (~230k jobs, as in
// the Google Borg replay), with runtimes scaled to hold the paper's ~15%
// average utilization on 175 servers.
func Paper() Scale {
	return Scale{Days: 10, JobsPerDay: 23000, DurationScale: 0.3, Seed: 7, Tick: time.Minute}
}

func (s Scale) withDefaults() Scale {
	if s.Days <= 0 {
		s.Days = 1
	}
	if s.JobsPerDay <= 0 {
		s.JobsPerDay = 7000
	}
	if s.DurationScale <= 0 {
		s.DurationScale = 1
	}
	if s.Tick <= 0 {
		s.Tick = time.Minute
	}
	return s
}

// simStart anchors all experiments in July 2023, matching the paper's
// carbon-intensity data window.
var simStart = time.Date(2023, 7, 1, 0, 0, 0, 0, time.UTC)

// Scenario bundles everything one experiment run needs.
type Scenario struct {
	Scale Scale
	Env   *region.Environment
	Jobs  []*trace.Job
}

// ScenarioOpt customizes scenario construction.
type ScenarioOpt func(*scenarioCfg)

type scenarioCfg struct {
	regions   []*region.Region
	table     energy.FactorTable
	alibaba   bool
	rateMult  float64
	serverMul float64
}

// WithRegions restricts the scenario to a region subset (Fig. 12).
func WithRegions(ids ...region.ID) ScenarioOpt {
	return func(c *scenarioCfg) {
		rs, err := region.DefaultsSubset(ids...)
		if err == nil {
			c.regions = rs
		}
	}
}

// WithWRIData switches the water dataset to the WRI-style table (Fig. 6/7).
func WithWRIData() ScenarioOpt {
	return func(c *scenarioCfg) { c.table = energy.WRITable }
}

// WithAlibabaTrace switches to the Alibaba-like trace: 8.5x the arrival
// rate, burstier (Fig. 9/13).
func WithAlibabaTrace() ScenarioOpt {
	return func(c *scenarioCfg) { c.alibaba = true }
}

// WithRateMultiplier scales the arrival rate (the 2x request-rate study).
func WithRateMultiplier(m float64) ScenarioOpt {
	return func(c *scenarioCfg) { c.rateMult = m }
}

// WithServerMultiplier scales every region's server count (Fig. 11's
// utilization sweep changes utilization by changing available servers).
func WithServerMultiplier(m float64) ScenarioOpt {
	return func(c *scenarioCfg) { c.serverMul = m }
}

// NewScenario builds an environment and trace at the given scale.
func NewScenario(s Scale, opts ...ScenarioOpt) (*Scenario, error) {
	s = s.withDefaults()
	cfg := scenarioCfg{regions: region.Defaults(), table: energy.Table, rateMult: 1, serverMul: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.serverMul != 1 {
		for _, r := range cfg.regions {
			n := int(float64(r.Servers)*cfg.serverMul + 0.5)
			if n < 1 {
				n = 1
			}
			r.Servers = n
		}
	}
	horizon := (s.Days + 3) * 24 // trace days plus drain margin
	env, err := region.NewEnvironment(cfg.regions, cfg.table, simStart, horizon, s.Seed)
	if err != nil {
		return nil, err
	}
	tc := trace.Config{
		Start:         simStart,
		Duration:      time.Duration(s.Days) * 24 * time.Hour,
		JobsPerDay:    s.JobsPerDay * cfg.rateMult,
		Regions:       env.IDs(),
		DurationScale: s.DurationScale,
		Seed:          s.Seed + 1,
	}
	var jobs []*trace.Job
	if cfg.alibaba {
		// The Alibaba VM trace invokes 8.5x more jobs than Borg, but its
		// tasks are far shorter; durations are scaled down by the same
		// factor so cluster utilization stays at the paper's ~15% while
		// the scheduler faces the full 8.5x decision rate (Fig. 13).
		tc.JobsPerDay *= 8.5
		tc.DurationScale /= 8.5
		jobs, err = trace.GenerateAlibabaLike(tc)
	} else {
		jobs, err = trace.GenerateBorgLike(tc)
	}
	if err != nil {
		return nil, err
	}
	return &Scenario{Scale: s, Env: env, Jobs: jobs}, nil
}

// run executes one scheduler over the scenario at the given tolerance.
func (sc *Scenario) run(s cluster.Scheduler, tol float64, fp *footprint.Model) (*cluster.Result, error) {
	return cluster.Run(cluster.Config{
		Env: sc.Env, FP: fp, Tick: sc.Scale.Tick, Tolerance: tol,
	}, s, sc.Jobs)
}

// waterwise builds a fresh WaterWise scheduler (fresh history) for one run.
func waterwise(cfg core.Config) (*core.Scheduler, error) { return core.New(cfg) }

// Report is one experiment's regenerated output.
type Report struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	// Charts are pre-rendered plain-text visualizations (bar charts,
	// sparklines) of the same data the tables carry.
	Charts []string
	Notes  []string
}

// String renders the report as plain text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, c := range r.Charts {
		b.WriteString(c)
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered, runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (*Report, error)
}

var registry = map[string]Experiment{}

func register(id, title string, run func(Scale) (*Report, error)) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for k := range registry {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("unknown experiment id %q (have: %s)", id, strings.Join(ids, ", "))
	}
	return e, nil
}

// defaultTable returns the default factor table (separated out so table
// experiments read naturally).
func defaultTable() energy.FactorTable { return energy.Table }

// scaleDuration converts a Scale's day count to a trace duration.
func scaleDuration(s Scale) time.Duration {
	return time.Duration(s.Days) * 24 * time.Hour
}
