package exp

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestSweepOfBaseIsBase pins the Base contract: a sweep with no axes
// expands to exactly its Base scenario, whatever the topology, protocol,
// workload or partition shape.
func TestSweepOfBaseIsBase(t *testing.T) {
	common := Scenario{Policy: "two-phase", FixedHold: 500 * time.Millisecond,
		Msgs: 20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second}
	with := func(f func(*Scenario)) Scenario {
		sc := common
		f(&sc)
		return sc
	}
	cases := map[string]Scenario{
		"regions": with(func(sc *Scenario) {
			sc.Regions, sc.Star, sc.Loss, sc.LossMode, sc.Churn = []int{30, 30}, true, 0.2, "hash", 1
		}),
		"tree": with(func(sc *Scenario) {
			sc.Tree, sc.Loss, sc.Burst = &TreeShape{Branch: 4, Levels: 3, Members: 200}, 0.05, true
		}),
		"workload": with(func(sc *Scenario) {
			sc.Regions, sc.Loss = []int{10, 10}, 0.1
			sc.Workload = &workload.Spec{Clients: 3, Msgs: 12, Arrival: workload.ArrivalPoisson, Gap: 50 * time.Millisecond}
		}),
		"rmtp": with(func(sc *Scenario) {
			sc.Protocol, sc.Policy, sc.Regions, sc.Loss = "rmtp", "server", []int{10, 10}, 0.2
			sc.Crash, sc.CrashRecover, sc.ByteBudget = 1, 300*time.Millisecond, 4096
		}),
		"open partition": with(func(sc *Scenario) {
			sc.Regions, sc.PartitionAt = []int{8, 8}, time.Second
		}),
	}
	for name, sc := range cases {
		sw := Sweep{Base: sc}
		if err := sw.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cells := sw.Expand()
		if len(cells) != 1 || cells[0].Name() != sc.Name() {
			t.Fatalf("%s: Sweep{Base: sc} expanded to %d cells, first %q; want one cell %q",
				name, len(cells), cells[0].Name(), sc.Name())
		}
	}
	// The open-ended episode survives; a partition axis would replace it.
	if got := (Sweep{Base: cases["open partition"]}).Expand()[0].Name(); !strings.Contains(got, "part=1s/open") {
		t.Fatalf("open-ended partition lost: %q", got)
	}
}

// TestScenarioValidateRejects is the one input check: each field's invalid
// value is rejected by Scenario.Validate, by Sweep.Validate on Base, and
// (for swept fields) by Sweep.Validate on the axis.
func TestScenarioValidateRejects(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		set  func(*Scenario)
		axis *Sweep // the same value on an axis, when the field has one
	}{
		{"loss>1", func(s *Scenario) { s.Loss = 1.5 }, &Sweep{Losses: []float64{0.1, 1.5}}},
		{"loss<0", func(s *Scenario) { s.Loss = -0.1 }, &Sweep{Losses: []float64{-0.1}}},
		{"loss NaN", func(s *Scenario) { s.Loss = nan }, &Sweep{Losses: []float64{nan}}},
		{"churn<0", func(s *Scenario) { s.Churn = -1 }, &Sweep{Churns: []float64{-1}}},
		{"churn NaN", func(s *Scenario) { s.Churn = nan }, &Sweep{Churns: []float64{nan}}},
		{"crash NaN", func(s *Scenario) { s.Crash = nan }, &Sweep{Crashes: []float64{0, nan}}},
		{"crash<0", func(s *Scenario) { s.Crash = -2 }, &Sweep{Crashes: []float64{-2}}},
		{"c NaN", func(s *Scenario) { s.C = nan }, nil},
		{"c<0", func(s *Scenario) { s.C = -6 }, nil},
		{"lambda NaN", func(s *Scenario) { s.Lambda = nan }, nil},
		{"lambda<0", func(s *Scenario) { s.Lambda = -1 }, nil},
		{"msgs<0", func(s *Scenario) { s.Msgs = -5 }, &Sweep{Msgs: -5}},
		{"gap<0", func(s *Scenario) { s.Gap = -time.Millisecond }, nil},
		{"horizon<0", func(s *Scenario) { s.Horizon = -time.Second }, &Sweep{Horizon: -time.Second}},
		{"crash-recover<0", func(s *Scenario) { s.CrashRecover = -1 }, nil},
		{"partition-at<0", func(s *Scenario) { s.PartitionAt = -1 }, nil},
		{"partition-dur<0", func(s *Scenario) { s.PartitionDur = -1 }, &Sweep{Partitions: []time.Duration{-1}}},
		{"hold<0", func(s *Scenario) { s.FixedHold = -1 }, nil},
		{"backoff<0", func(s *Scenario) { s.RepairBackoff = -1 }, nil},
		{"payload<0", func(s *Scenario) { s.PayloadBytes = -1 }, &Sweep{PayloadSizes: []int{0, -1}}},
		{"budget<0", func(s *Scenario) { s.ByteBudget = -1 }, &Sweep{Budgets: []int{-1}}},
		{"protocol", func(s *Scenario) { s.Protocol = "tcp" }, &Sweep{Protocols: []string{"rrmp", "tcp"}}},
		{"loss mode", func(s *Scenario) { s.LossMode = "shared" }, nil},
		{"workload", func(s *Scenario) { s.Workload = &workload.Spec{Clients: 1} },
			&Sweep{Workloads: []*workload.Spec{nil, {Clients: 1}}}},
	}
	for _, c := range cases {
		var sc Scenario
		c.set(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Scenario.Validate accepted %+v", c.name, sc)
		}
		if err := (Sweep{Base: sc}).Validate(); err == nil {
			t.Errorf("%s: Sweep.Validate accepted it as Base", c.name)
		}
		if c.axis != nil && c.axis.Validate() == nil {
			t.Errorf("%s: Sweep.Validate accepted it on the axis", c.name)
		}
	}
	// Zero values mean "default" or "none" and stay valid.
	if err := (Scenario{}).Validate(); err != nil {
		t.Fatalf("zero scenario rejected: %v", err)
	}
	for _, sw := range []Sweep{DefaultSweep(), ScaleSweep(), ScaleSweepXL(), ScaleSweep1M(), WorkloadSweep(), AdaptiveSweep()} {
		if err := sw.Validate(); err != nil {
			t.Fatalf("standing sweep rejected: %v", err)
		}
	}
}
