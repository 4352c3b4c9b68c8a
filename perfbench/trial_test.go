package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/topology"
)

// smallScenario is the 100k cell shrunk to a 300-member tree, keeping its
// loss model, policy and workload.
func smallScenario(t *testing.T, shards int) exp.Scenario {
	t.Helper()
	sc, err := xlScenario(shards)
	if err != nil {
		t.Fatal(err)
	}
	sc.Tree = &exp.TreeShape{Branch: 4, Levels: 3, Members: 300}
	sc.Horizon = time.Second
	return sc
}

// TestTrialMatchesRunScenario pins runXLTrial, untraced and traced, to
// runner.RunScenario at widths 1 and 2: the wrappers and the sliced event
// loop must not change a single simulated output.
func TestTrialMatchesRunScenario(t *testing.T) {
	for _, shards := range []int{1, 2} {
		sc := smallScenario(t, shards)
		const seed = 7
		want, err := runner.RunScenario(sc, seed)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := runXLTrial(sc, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runXLTrial(sc, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffOutputs(plain.out, want) {
			t.Errorf("width %d untraced: %s", shards, d)
		}
		for _, d := range diffOutputs(traced.out, want) {
			t.Errorf("width %d traced: %s", shards, d)
		}
		for _, d := range diffPackets(traced, plain) {
			t.Errorf("width %d traced vs untraced: %s", shards, d)
		}
		if traced.lanes != shards {
			t.Errorf("width %d: traced trial ran %d lanes", shards, traced.lanes)
		}
		tot := traced.tr.totals()
		var delivered int64
		for _, n := range plain.deliv {
			delivered += n
		}
		if tot.handler.calls != delivered {
			t.Errorf("width %d: %d handler calls, %d packets delivered", shards, tot.handler.calls, delivered)
		}
		if shards > 1 && tot.crossShard == 0 {
			t.Errorf("width %d: no cross-shard packets counted", shards)
		}
	}
}

// TestWrapPolicyForwardsOptionalInterfaces checks that the timed policy
// exposes exactly the optional interfaces rrmp.NewMember type-asserts.
func TestWrapPolicyForwardsOptionalInterfaces(t *testing.T) {
	region := []topology.NodeID{0, 1, 2}
	adaptive := core.NewAdaptiveHold(core.AdaptiveConfig{TMin: time.Millisecond, TMax: time.Second, Target: 1, C: 1, N: 3})
	for _, tc := range []struct {
		name           string
		inner          core.Policy
		locator, binds bool
	}{
		{"two-phase", core.NewTwoPhase(40*time.Millisecond, 6, 3, time.Second), false, false},
		{"hash", core.NewHashElect(40*time.Millisecond, 1, 0, region, time.Second), true, false},
		{"adaptive", adaptive, false, true},
	} {
		w := wrapPolicy(tc.inner, &laneAcc{})
		_, isLoc := w.(bufferersLocator)
		_, isBinder := w.(core.RngBinder)
		if isLoc != tc.locator || isBinder != tc.binds {
			t.Errorf("%s: wrapper locator=%v binder=%v, want %v %v", tc.name, isLoc, isBinder, tc.locator, tc.binds)
		}
		if w.Name() != tc.inner.Name() {
			t.Errorf("%s: wrapper name %q", tc.name, w.Name())
		}
		if b, ok := w.(core.RngBinder); ok {
			b.BindRng(rng.New(1))
		}
	}
}

// declaredUnits reads the per-layer metrics BENCHMARK.json declares, with
// their units.
func declaredUnits(t *testing.T) map[string]string {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range spec.PerLayer {
		units[m.Name] = m.Unit
	}
	return units
}

// sameMetrics fails unless got reports exactly the declared metrics, each
// in its declared unit.
func sameMetrics(t *testing.T, what string, got map[string]metric, declared map[string]string) {
	t.Helper()
	for name, unit := range declared {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s does not report declared metric %q", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s reports %q in %q, BENCHMARK.json declares %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s reports undeclared metric %q", what, name)
		}
	}
}

// TestTracedXLTable checks the traced trial's report on the small tree:
// it passes its checks, declares exactly BENCHMARK.json's per-layer
// metrics, and its module self times plus unattributed sum to run_s.
func TestTracedXLTable(t *testing.T) {
	declared := declaredUnits(t)
	for _, shards := range []int{1, 2} {
		sc := smallScenario(t, shards)
		out, want, check, err := newXLChecker(sc, 11, true)
		if err != nil {
			t.Fatal(err)
		}
		out, err = traceXL(options{workload: "small", seed: 11}, sc, out, want, check)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 || out.attempted != 2 {
			t.Fatalf("width %d: %d of %d checks failed: %v", shards, out.failed, out.attempted, out.failures)
		}
		sameMetrics(t, "traced xl", out.metrics, declared)
		var sum float64
		for _, r := range out.table.Rows {
			sum += r.SelfS
		}
		if math.Abs(sum-out.table.RunS) > 1e-9*out.table.RunS+1e-12 {
			t.Errorf("width %d: self times sum to %v, run_s %v", shards, sum, out.table.RunS)
		}
		if shards > 1 && out.metrics["sim.lane_imbalance"].Value == 0 {
			t.Errorf("width %d: no lane imbalance reported", shards)
		}
	}
}

// TestTracedSweepReport runs the traced sweep path on a two-cell family
// (one rrmp cell, one rmtp cell) and checks its metric names and checks.
func TestTracedSweepReport(t *testing.T) {
	declared := declaredUnits(t)
	sweeps := []exp.Sweep{{
		Regions: [][]int{{10, 10}}, Losses: []float64{0.05},
		Protocols: []string{"rrmp", "rmtp"}, Msgs: 3, Horizon: time.Second,
	}}
	out, check, err := newSweepChecker(3, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err = traceSweep(options{workload: "small", seed: 3}, sweeps, out, check)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted != 2 {
		t.Fatalf("%d of %d checks failed: %v", out.failed, out.attempted, out.failures)
	}
	sameMetrics(t, "traced sweep", out.metrics, declared)
	if got := out.metrics["exp.trials"].Value; got != 2 {
		t.Errorf("exp.trials = %v, want 2", got)
	}
	if got := out.metrics["rmtp.trials"].Value; got != 1 {
		t.Errorf("rmtp.trials = %v, want 1", got)
	}
}

// TestReferenceLoads checks the embedded reference parses and covers
// both the xl cell and the sweep for the same seeds.
func TestReferenceLoads(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.XL) == 0 || len(ref.XL) != len(ref.Sweep) {
		t.Fatalf("reference has %d xl and %d sweep seeds", len(ref.XL), len(ref.Sweep))
	}
	for seed, r := range ref.XL {
		for _, k := range checkedKeys {
			if _, ok := r.Outputs[k]; !ok {
				t.Errorf("seed %s: reference lacks %q", seed, k)
			}
		}
	}
}
