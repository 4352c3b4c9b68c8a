package runner

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/topology"
)

// smallSweep is a fast 2×2 matrix for tests: one lossy and one churning
// dimension over a 12-member region.
func smallSweep() exp.Sweep {
	return exp.Sweep{
		Base:     exp.Scenario{Msgs: 5, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second},
		Regions:  [][]int{{12}},
		Losses:   []float64{0.2},
		Churns:   []float64{0, 2},
		Policies: []string{"two-phase", "fixed"},
	}
}

func TestRunScenarioMetrics(t *testing.T) {
	sc := smallSweep().Expand()[0] // loss 0.2, churn 0, two-phase
	m, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"delivery_ratio", "min_reach_frac", "local_requests", "repairs",
		"buffer_integral_msgsec", "packets_sent", "bytes_sent", "events",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metric %q missing from scenario run", key)
		}
	}
	if r := m["delivery_ratio"]; r <= 0.5 || r > 1 {
		t.Fatalf("delivery_ratio = %v, want (0.5, 1] on a recoverable workload", r)
	}
	if m["leaves"] != 0 {
		t.Fatalf("churn-free scenario recorded %v leaves", m["leaves"])
	}
}

func TestRunScenarioChurnLeaves(t *testing.T) {
	cells := smallSweep().Expand()
	sc := cells[2] // loss 0.2, churn 2, two-phase
	if sc.Churn != 2 {
		t.Fatalf("expansion order changed: got churn %v", sc.Churn)
	}
	m, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	// 2 leaves/s over 2 s: expect some departures, but never more than the
	// 11 non-sender members.
	if m["leaves"] < 1 || m["leaves"] > 11 {
		t.Fatalf("leaves = %v, want within [1, 11]", m["leaves"])
	}
}

func TestRunScenarioRejectsUnknownPolicy(t *testing.T) {
	sc := smallSweep().Expand()[0]
	sc.Policy = "nope"
	if _, err := RunScenario(sc, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestRunSweepDeterministicAcrossParallelism is the tier-1 guarantee at the
// runner layer: real simulations, not stub trials, must aggregate to
// byte-identical reports at any pool width.
func TestRunSweepDeterministicAcrossParallelism(t *testing.T) {
	var blobs []string
	for _, parallel := range []int{1, 4} {
		rep, err := RunSweep(exp.Options{Trials: 3, Parallel: parallel, BaseSeed: 11}, smallSweep())
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, string(blob))
	}
	if blobs[0] != blobs[1] {
		t.Fatal("sweep reports differ between parallel=1 and parallel=4")
	}
}

func TestAblationPoliciesTrials(t *testing.T) {
	rows, err := AblationPoliciesTrials(exp.Options{Trials: 2, Parallel: 2, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d policy rows, want 5", len(rows))
	}
	if rows[0].Policy != "two-phase C=6" {
		t.Fatalf("row order changed: first policy %q", rows[0].Policy)
	}
	for _, r := range rows {
		if r.DeliveryRatio.N != 2 {
			t.Fatalf("policy %q aggregated %d trials, want 2", r.Policy, r.DeliveryRatio.N)
		}
		if r.DeliveryRatio.Mean <= 0.9 || r.DeliveryRatio.Mean > 1 {
			t.Fatalf("policy %q delivery %v implausible", r.Policy, r.DeliveryRatio.Mean)
		}
		if r.BufferIntegral.Mean <= 0 {
			t.Fatalf("policy %q has zero buffering cost", r.Policy)
		}
	}
}

func TestAblationLambdaTrials(t *testing.T) {
	rows, err := AblationLambdaTrials([]float64{1, 4}, 2, exp.Options{Trials: 2, Parallel: 2, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Lambda != 1 || rows[1].Lambda != 4 {
		t.Fatalf("lambda rows wrong: %+v", rows)
	}
	// More aggressive λ must send more remote requests on average.
	if rows[1].RemoteRequests.Mean <= rows[0].RemoteRequests.Mean {
		t.Fatalf("λ=4 requests (%v) not above λ=1 (%v)",
			rows[1].RemoteRequests.Mean, rows[0].RemoteRequests.Mean)
	}
}

func TestRunScenarioCrashFaults(t *testing.T) {
	sc := exp.Scenario{
		Regions: []int{14}, Loss: 0.2, Crash: 3, Policy: "two-phase",
		Msgs: 5, Gap: 20 * time.Millisecond, Horizon: 3 * time.Second,
	}
	m, err := RunScenario(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	if m["crashes"] <= 0 {
		t.Fatalf("crashes = %v, want > 0 at rate 3/s over 3s", m["crashes"])
	}
	if m["suspects"] <= 0 {
		t.Fatalf("suspects = %v, want > 0 (failure detector should run in crash cells)", m["suspects"])
	}
	for _, key := range []string{"unrecoverable", "searches", "search_failures",
		"survivor_delivery_ratio", "survivor_min_reach_frac", "partition_drops"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metric %q missing from crash scenario", key)
		}
	}
	if r := m["survivor_delivery_ratio"]; r <= 0.5 || r > 1 {
		t.Fatalf("survivor_delivery_ratio = %v, want (0.5, 1]", r)
	}
	// Crash-stop members freeze their Delivered counters, so whole-group
	// delivery can only be at most survivor delivery.
	if m["delivery_ratio"] > m["survivor_delivery_ratio"]+1e-9 {
		t.Fatalf("delivery_ratio %v exceeds survivor ratio %v",
			m["delivery_ratio"], m["survivor_delivery_ratio"])
	}
}

// A partition that heals must end with full survivor delivery: the
// minority side recovers everything it missed once the cut closes.
func TestRunScenarioPartitionHealsAndRecovers(t *testing.T) {
	sc := exp.Scenario{
		Regions: []int{10, 10}, Policy: "two-phase",
		PartitionAt: 300 * time.Millisecond, PartitionDur: time.Second,
		Msgs: 8, Gap: 100 * time.Millisecond, Horizon: 5 * time.Second,
	}
	m, err := RunScenario(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m["partition_drops"] <= 0 {
		t.Fatalf("partition_drops = %v, want > 0 (messages span the cut)", m["partition_drops"])
	}
	if m["survivor_delivery_ratio"] != 1 {
		t.Fatalf("survivor_delivery_ratio = %v after heal, want 1", m["survivor_delivery_ratio"])
	}
	if m["min_reach_frac"] != 1 {
		t.Fatalf("min_reach_frac = %v after heal, want 1", m["min_reach_frac"])
	}
}

// An unhealed partition must NOT fully deliver messages published after
// the cut — and the shortfall must be visible, not silent: every missing
// (survivor, message) pair is explained by an in-flight recovery at the
// horizon or an unrecoverable count.
func TestRunScenarioOpenPartitionBlocksDelivery(t *testing.T) {
	sc := exp.Scenario{
		Regions: []int{10, 10}, Policy: "two-phase",
		PartitionAt: 200 * time.Millisecond, // never heals
		Msgs:        5, Gap: 100 * time.Millisecond, Horizon: 2 * time.Second,
	}
	m, err := RunScenario(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m["survivor_delivery_ratio"] >= 1 {
		t.Fatal("open partition delivered everything; the cut is not cutting")
	}
	if m["partition_drops"] <= 0 {
		t.Fatalf("partition_drops = %v, want > 0", m["partition_drops"])
	}
}

func TestRunScenarioCrashRecoverReturnsMembers(t *testing.T) {
	sc := exp.Scenario{
		Regions: []int{12}, Loss: 0.1, Crash: 2, CrashRecover: 500 * time.Millisecond,
		Policy: "two-phase",
		Msgs:   10, Gap: 100 * time.Millisecond, Horizon: 4 * time.Second,
	}
	m, err := RunScenario(sc, 9)
	if err != nil {
		t.Fatal(err)
	}
	if m["crashes"] <= 0 {
		t.Fatal("no crashes scheduled")
	}
	// With recovery shorter than the run, every victim returns: survivors
	// = everyone, and the whole group converges.
	if m["survivor_delivery_ratio"] != 1 {
		t.Fatalf("survivor_delivery_ratio = %v with recovering crashes, want 1", m["survivor_delivery_ratio"])
	}
	if m["delivery_ratio"] != 1 {
		t.Fatalf("delivery_ratio = %v: recovered members did not catch up", m["delivery_ratio"])
	}
}

// Crash and partition cells obey the same determinism contract as the
// rest of the matrix: byte-identical reports at any parallelism.
func TestRunSweepFaultCellsDeterministicAcrossParallelism(t *testing.T) {
	sw := exp.Sweep{
		Base:       exp.Scenario{Msgs: 4, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second},
		Regions:    [][]int{{8}, {6, 6}},
		Losses:     []float64{0.2},
		Crashes:    []float64{2},
		Partitions: []time.Duration{500 * time.Millisecond},
		Policies:   []string{"two-phase"},
	}
	blob := func(parallel int) string {
		rep, err := RunSweep(exp.Options{Trials: 3, Parallel: parallel, BaseSeed: 42}, sw)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if blob(1) != blob(4) {
		t.Fatal("fault-cell sweep report differs across parallelism")
	}
}

func TestPartitionClasses(t *testing.T) {
	multi, err := topology.Chain(5, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	classes := PartitionClasses(multi)
	// Region-granular: regions 0,1 on the sender side, region 2 across.
	for _, n := range multi.Members(0) {
		if classes[n] != 0 {
			t.Fatalf("root-region node %d in class %d", n, classes[n])
		}
	}
	for _, n := range multi.Members(2) {
		if classes[n] != 1 {
			t.Fatalf("leaf-region node %d in class %d", n, classes[n])
		}
	}
	for r := 0; r < multi.NumRegions(); r++ {
		first := classes[multi.Members(topology.RegionID(r))[0]]
		for _, n := range multi.Members(topology.RegionID(r)) {
			if classes[n] != first {
				t.Fatalf("region %d straddles the cut", r)
			}
		}
	}

	single, err := topology.SingleRegion(9)
	if err != nil {
		t.Fatal(err)
	}
	classes = PartitionClasses(single)
	if classes[single.Sender()] != 0 {
		t.Fatal("sender not in class 0")
	}
	ones := 0
	for _, n := range single.Members(0) {
		if classes[n] == 1 {
			ones++
		}
	}
	if ones != 4 {
		t.Fatalf("single-region cut put %d of 9 members in class 1, want 4", ones)
	}
}
