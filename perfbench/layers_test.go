package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestTracedReplayIsDecisionNeutral pins that the tracing wrappers only
// measure: a traced replay serves the same decisions, placement for
// placement, as an untraced one and as the offline reference, and the
// wrapped scheduler still surfaces its solver statistics in Status().
func TestTracedReplayIsDecisionNeutral(t *testing.T) {
	for _, p := range []replayParams{
		{JobsPerDay: 23000, Hours: 6, DurationScale: 0.3, Tolerance: 0.5},
		{Alibaba: true, JobsPerDay: 100000, Hours: 2, DurationScale: 0.3 / 8.5, Tolerance: 4, Shards: 2},
		{JobsPerDay: 23000, Hours: 3, DurationScale: 0.3, Tolerance: 0.5, Surface: "stream", Durable: true},
		{JobsPerDay: 23000, Hours: 3, DurationScale: 0.3, Tolerance: 0.5, Surface: "http"},
	} {
		jobs, err := genTrace(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		r := &replayRun{p: p, jobs: jobs, hours: p.Hours + 72, dir: t.TempDir(), tr: newTracer(), refTr: newTracer()}
		for _, j := range jobs {
			r.specs = append(r.specs, specOf(j))
		}
		plain, err := r.rep(false, 0)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := r.rep(true, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range []*repResult{plain, traced} {
			if len(rr.problems) > 0 {
				t.Fatalf("%+v: %v", p, rr.problems)
			}
		}
		if plain.digest != traced.digest || plain.carbon != traced.carbon || plain.water != traced.water {
			t.Fatalf("%+v: traced replay decided differently from the untraced one", p)
		}
		ref, err := r.reference(plain.partitions, true)
		if err != nil {
			t.Fatal(err)
		}
		if digest(resultPlacements(ref)) != traced.digest {
			t.Fatalf("%+v: traced replay differs from the offline reference", p)
		}
		for i, st := range traced.status {
			if st.Solver == nil {
				t.Fatalf("%+v: shard %d Status() lost its solver stats behind the wrapper", p, i)
			}
			if want := plain.status[i].Solver; st.Solver.Nodes != want.Nodes || st.Solver.SimplexIters != want.SimplexIters {
				t.Errorf("%+v: shard %d solver work traced %+v, untraced %+v", p, i, *st.Solver, *want)
			}
		}
		if len(traced.sched) == 0 || traced.sched[0].rounds == 0 {
			t.Fatalf("%+v: the scheduler wrapper recorded no rounds", p)
		}
	}
}

// TestSelfTimeSubtractsChildren checks the ledger arithmetic on a
// hand-built span tree.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: layerSchedule, Parent: 0, Start: 10, End: 50},
		{Name: layerFeed, Parent: 1, Start: 10, End: 25, Count: 7},
		{Name: layerMILP, Parent: 1, Start: 10, End: 20, Count: 1},
	}
	lt := sumLayers(spans)
	if got := lt.self["root"]; got != 60 {
		t.Errorf("root self = %d, want 60", got)
	}
	if got := lt.self[layerSchedule]; got != 15 {
		t.Errorf("schedule self = %d, want 15", got)
	}
	if got := lt.calls[layerFeed]; got != 7 {
		t.Errorf("feed calls = %d, want 7", got)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the benchmark's metric and workload
// lists in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: perfbench reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: perfbench %+v, BENCHMARK.json %+v", kind, i, d, g)
			}
		}
	}
	check("end_to_end", endToEnd, bm.EndToEnd)
	check("per_layer", perLayer, bm.PerLayer)
	names := workloadNames()
	if len(names) != len(bm.Workloads) {
		t.Fatalf("perfbench gates %d workloads, BENCHMARK.json %d", len(names), len(bm.Workloads))
	}
	for i, w := range bm.Workloads {
		if _, ok := workloadParams(w.Name); !ok || names[i] != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, perfbench %q", i, w.Name, names[i])
		}
	}
}
