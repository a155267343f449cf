// Command perfbench is the repository benchmark: it drives the scheduling
// service through its own entry points on four workloads and prints every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// A run whose outputs fail the correctness gate prints "correct": false
// and exits 1. See README.md for the workloads, the metrics and the
// held-out seed; run it through run.py, which builds it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef is one reported metric: its name, unit and direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the service sees, measured with
// tracing off. BENCHMARK.json lists the same names, units and directions
// (TestCatalogMatchesBenchmarkJSON keeps them in step).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"decisions_per_s", "decisions/s", "higher"},
	{"decision_latency_p50_ms", "ms", "lower"},
	{"decision_latency_p90_ms", "ms", "lower"},
	{"ack_latency_p50_ms", "ms", "lower"},
	{"carbon_saving_pct", "%", "higher"},
	{"water_saving_pct", "%", "higher"},
	{"violation_pct", "%", "lower"},
	{"service_time_norm", "ratio", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	{"feed.at_calls_per_decision", "count", "lower"},
	{"feed.at_self_ns_per_decision", "ns", "lower"},
	{"feed.at_share_pct", "%", "lower"},
	{"core.schedule_calls_per_decision", "count", "lower"},
	{"core.schedule_self_ns_per_decision", "ns", "lower"},
	{"core.schedule_ns_p99", "ns", "lower"},
	{"core.batch_per_round", "count", "higher"},
	{"core.backlog_max", "count", "lower"},
	{"core.softened_round_pct", "%", "lower"},
	{"milp.solve_ns_per_decision", "ns", "lower"},
	{"milp.nodes_per_round", "count", "lower"},
	{"lp.simplex_iters_per_round", "count", "lower"},
	{"lp.warm_start_pct", "%", "higher"},
	{"cluster.step_self_ns_per_decision", "ns", "lower"},
	{"server.submit_ns_p50", "ns", "lower"},
	{"server.submit_ns_p99", "ns", "lower"},
	{"server.decisions_page_ns_p99", "ns", "lower"},
	{"server.decisions_per_page", "count", "higher"},
	{"wal.records_per_decision", "count", "lower"},
	{"wal.fsyncs_per_1k_decisions", "count", "lower"},
	{"wal.bytes_per_decision", "bytes", "lower"},
	{"wal.fsync_p99_ms", "ms", "lower"},
	{"wire.encode_ns_per_job", "ns", "lower"},
	{"wire.decode_ns_per_decision", "ns", "lower"},
	{"wire.bytes_per_decision", "bytes", "lower"},
	{"http.post_ns_p99", "ns", "lower"},
	{"http.poll_ns_p99", "ns", "lower"},
	{"http.bytes_per_decision", "bytes", "lower"},
	{"fleet.decisions_ns_per_decision", "ns", "lower"},
	{"fleet.shard_skew_pct", "%", "lower"},
	{"tsdb.scrapes_per_s", "1/s", "lower"},
	{"tsdb.store_bytes", "bytes", "lower"},
	{"obs.gather_parse_ns", "ns", "lower"},
	{"go.allocs_per_decision", "count", "lower"},
	{"go.gc_cpu_pct", "%", "lower"},
	{"ledger.layer_sum_pct", "%", "higher"},
	{"ledger.residual_pct", "%", "lower"},
	{"ledger.tracing_overhead_pct", "%", "lower"},
}

// heldOutSeed is the seed kept out of development: a claimed gain is
// confirmed on it too (README.md).
const heldOutSeed = 20251017

// workloads are the benchmark's workloads, in BENCHMARK.json's order.
var workloads = []struct {
	name string
	p    replayParams
}{
	{"borg-replay", borgReplay},
	{"alibaba-fleet", alibabaFleet},
	{"stream-durable", streamDurable},
	{"http-ingest", httpIngest},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span and ledger files
	commit   string
}

// report is one run's outcome before it is printed.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	// absent names each per-layer metric the workload does not exercise,
	// with the reason; those are reported as 0.
	absent   map[string]string
	problems []string
	params   any
	ledger   map[string]any
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run() (int, error) {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (inputs are generated from it)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for the span and ledger files")
	flag.StringVar(&o.commit, "commit", "unknown", "commit or source digest recorded in the fingerprint")
	flag.Parse()
	o.trace = traceFlag == 1
	p, ok := workloadParams(o.workload)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return 0, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return 0, err
	}
	rep, err := runReplay(p, o)
	if err != nil {
		return 0, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line := resultLine{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := rep.values[d.Name]
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		note := ""
		if why, ok := rep.absent[d.Name]; ok {
			note = "  (absent: " + why + ")"
		}
		fmt.Printf("%-36s %16.6g %-12s %s is better%s\n", d.Name, v, d.Unit, d.Better, note)
	}
	for _, p := range rep.problems {
		fmt.Println("problem:", p)
	}
	fp := fingerprint(o, rep.params)
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return 0, err
	}
	fmt.Println("fingerprint:", string(fpJSON))
	if o.trace {
		rep.ledger["fingerprint"] = fp
		rep.ledger["absent"] = rep.absent
		rep.ledger["metrics"] = line.Metrics
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.ledger.json", o.workload, o.seed))
		b, err := json.MarshalIndent(rep.ledger, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return 0, err
		}
		fmt.Println("ledger:", path)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(b))
	if !rep.correct {
		return 1, nil
	}
	return 0, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadParams(name string) (replayParams, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w.p, true
		}
	}
	return replayParams{}, false
}

// fingerprint records the machine, toolchain, code and inputs a result
// came from, so results are compared like with like.
func fingerprint(o options, params any) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     o.commit,
		"workload":   o.workload,
		"seed":       o.seed,
		"held_out":   o.seed == heldOutSeed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"params":     params,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
