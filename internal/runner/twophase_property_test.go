package runner

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/topology"
	"repro/internal/wire"
)

// twoPhaseSnapshot is the observable outcome of one invariant run, used
// both for the invariant checks and for the dense-vs-legacy index
// comparison.
type twoPhaseSnapshot struct {
	longTerm  map[topology.NodeID]map[wire.MessageID]bool
	received  map[topology.NodeID]int
	handoffs  map[topology.NodeID]int64
	delivered int64
}

// runTwoPhaseInvariantTrial builds a hash-elect cluster over topo, runs a
// lossy workload (plus optional graceful leaves) past the idle threshold,
// and returns the long-term holder snapshot taken before the TTL plus the
// cluster for follow-up checks.
func runTwoPhaseInvariantTrial(t *testing.T, topo *topology.Topology, seed uint64,
	kind core.IndexKind, churn float64) (*Cluster, []wire.MessageID, twoPhaseSnapshot) {
	t.Helper()

	params := rrmp.DefaultParams()
	params.C = 3
	params.LongTermTTL = 3 * time.Second

	c, err := NewCluster(ClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   seed,
		Loss:   netsimBernoulli{p: 0.05, rng: rng.New(seed).Split(lossStreamLabel)},
		Policy: func(view topology.View, p rrmp.Params) core.Policy {
			region := append([]topology.NodeID{view.Self}, view.Peers()...)
			return core.NewHashElect(p.IdleThreshold, int(p.C), view.Self, region, p.LongTermTTL)
		},
		BufferIndex: kind,
	})
	if err != nil {
		t.Fatal(err)
	}

	c.Sender.StartSessions()
	const msgs = 6
	ids := make([]wire.MessageID, 0, msgs)
	for i := 0; i < msgs; i++ {
		c.Engine.At(time.Duration(i)*50*time.Millisecond, func() {
			ids = append(ids, c.Sender.Publish(make([]byte, 64)))
		})
	}
	if churn > 0 {
		var candidates []topology.NodeID
		for _, n := range c.All {
			if n != topo.Sender() {
				candidates = append(candidates, n)
			}
		}
		scheduleChurn(rng.New(seed).Split(churnStreamLabel), churn, 1200*time.Millisecond,
			candidates, func(at time.Duration, victim topology.NodeID) {
				c.Engine.At(at, func() { c.Members[victim].Leave() })
			})
	}

	// Run well past the idle threshold (40 ms), stop the session stream,
	// and drain, so every surviving copy is a long-term election — but stay
	// far below the 3 s TTL.
	c.Engine.RunUntil(1500 * time.Millisecond)
	c.Sender.StopSessions()
	c.Engine.RunUntil(1800 * time.Millisecond)

	snap := twoPhaseSnapshot{
		longTerm: make(map[topology.NodeID]map[wire.MessageID]bool),
		received: make(map[topology.NodeID]int),
		handoffs: make(map[topology.NodeID]int64),
	}
	for _, n := range c.All {
		m := c.Members[n]
		snap.handoffs[n] = m.Metrics().HandoffsRecv.Value()
		snap.delivered += m.Metrics().Delivered.Value()
		holders := make(map[wire.MessageID]bool)
		for _, id := range ids {
			if m.HasReceived(id) {
				snap.received[n]++
			}
			if e, ok := m.Buffer().Get(id); ok {
				if e.State != core.StateLongTerm {
					t.Fatalf("node %d holds %v short-term %v after the idle horizon", n, id, e.State)
				}
				holders[id] = true
			}
		}
		snap.longTerm[n] = holders
	}
	return c, ids, snap
}

// netsimBernoulli is a minimal local Bernoulli DATA-loss model so the test
// controls its own rng stream (mirrors RunScenario's construction).
type netsimBernoulli struct {
	p   float64
	rng *rng.Source
}

func (b netsimBernoulli) Drop(_, _ topology.NodeID, t wire.Type) bool {
	if t != wire.TypeData {
		return false
	}
	return b.rng.Bernoulli(b.p)
}

// TestTwoPhaseInvariantHashElected is the §3 invariant property test:
// across seeds and topologies, once a message has gone idle, long-term
// copies exist only at the hash-elected bufferer set (plus members that
// accepted an in-flight handoff from a leaver), every region retains at
// least one copy until the long-term TTL, and after the TTL quiesced
// copies are gone. The whole property runs against both the dense scale
// index and the PR 2 legacy map index, and their snapshots must agree
// exactly — the rewrite must be invisible at the protocol level.
func TestTwoPhaseInvariantHashElected(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed invariant sweep; skipped with -short")
	}
	topologies := []struct {
		name  string
		build func() (*topology.Topology, error)
	}{
		{"single20", func() (*topology.Topology, error) { return topology.SingleRegion(20) }},
		{"chain12+12", func() (*topology.Topology, error) { return topology.Chain(12, 12) }},
		{"tree-b2d3", func() (*topology.Topology, error) { return topology.BalancedTree(2, 3, 42) }},
	}
	for _, tc := range topologies {
		for seed := uint64(1); seed <= 4; seed++ {
			for _, churn := range []float64{0, 2} {
				name := fmt.Sprintf("%s/seed=%d/churn=%v", tc.name, seed, churn)
				t.Run(name, func(t *testing.T) {
					topo, err := tc.build()
					if err != nil {
						t.Fatal(err)
					}
					c, ids, dense := runTwoPhaseInvariantTrial(t, topo, seed, core.IndexDense, churn)
					checkTwoPhaseInvariant(t, c, topo, ids, dense, churn)

					topo2, err := tc.build()
					if err != nil {
						t.Fatal(err)
					}
					_, _, legacy := runTwoPhaseInvariantTrial(t, topo2, seed, core.IndexLegacyMap, churn)
					compareSnapshots(t, dense, legacy)
				})
			}
		}
	}
}

func checkTwoPhaseInvariant(t *testing.T, c *Cluster, topo *topology.Topology,
	ids []wire.MessageID, snap twoPhaseSnapshot, churn float64) {
	t.Helper()

	// Elected sets are computable by anyone from the region membership —
	// that is the point of the deterministic policy (§3.4).
	elected := func(r topology.RegionID, id wire.MessageID) map[topology.NodeID]bool {
		members := topo.Members(r)
		p := core.NewHashElect(time.Millisecond, 3, members[0], members, 0)
		set := make(map[topology.NodeID]bool)
		for _, b := range p.Bufferers(id) {
			set[b] = true
		}
		return set
	}

	for _, n := range c.All {
		m := c.Members[n]
		r := topo.RegionOf(n)
		for id := range snap.longTerm[n] {
			if !elected(r, id)[n] && snap.handoffs[n] == 0 {
				t.Fatalf("node %d (region %d) holds a long-term copy of %v but is neither hash-elected nor a handoff recipient", n, r, id)
			}
		}
		_ = m
	}

	// Retention: every region keeps at least one copy of every message
	// until the TTL (leavers hand off inside the region, so churn must not
	// void this), provided the region still has live members.
	for _, id := range ids {
		for r := 0; r < topo.NumRegions(); r++ {
			live := 0
			holders := 0
			for _, n := range topo.Members(topology.RegionID(r)) {
				if !c.Members[n].Left() {
					live++
				}
				if snap.longTerm[n][id] {
					holders++
				}
			}
			if live > 0 && holders == 0 {
				t.Fatalf("region %d retains no copy of %v before the TTL (%d live members)", r, id, live)
			}
		}
	}

	// After the TTL, quiesced long-term copies age out (§3.2: "eventually
	// even a long-term bufferer may decide to discard").
	c.Engine.RunUntil(6 * time.Second)
	for _, n := range c.All {
		if got := c.Members[n].Buffer().LongTermCount(); got != 0 {
			t.Fatalf("node %d still holds %d long-term entries after the TTL", n, got)
		}
	}
}

// compareSnapshots asserts the dense and legacy buffer indexes produced
// the identical observable outcome.
func compareSnapshots(t *testing.T, dense, legacy twoPhaseSnapshot) {
	t.Helper()
	if dense.delivered != legacy.delivered {
		t.Fatalf("delivered diverged: dense %d, legacy %d", dense.delivered, legacy.delivered)
	}
	for n, holders := range dense.longTerm {
		lh := legacy.longTerm[n]
		if len(holders) != len(lh) {
			t.Fatalf("node %d long-term set diverged: dense %v, legacy %v", n, holders, lh)
		}
		for id := range holders {
			if !lh[id] {
				t.Fatalf("node %d holds %v under dense but not legacy index", n, id)
			}
		}
		if dense.received[n] != legacy.received[n] {
			t.Fatalf("node %d received-count diverged: dense %d, legacy %d", n, dense.received[n], legacy.received[n])
		}
		if dense.handoffs[n] != legacy.handoffs[n] {
			t.Fatalf("node %d handoff-count diverged: dense %d, legacy %d", n, dense.handoffs[n], legacy.handoffs[n])
		}
	}
}

// TestScaleTrialUnder10s is the acceptance bound the scale record tracks:
// every row of the standing scale ladder — the legacy 1k cells, the 10k
// BENCH_scale XL cell, and the 100k-member depth-3 XL cell on the sharded
// engine — must complete one trial inside 10 s of wall clock. The 1k rows
// keep the full 20-message / 5 s workload; the XL rows use ScaleSweepXL's
// trimmed burst probe (10 messages / 2 s), the same cells BENCH_scale.json
// records. Under -short only the 10k row runs (the CI race job's macro
// check); RRMP_SHARDS overrides the XL shard widths.
func TestScaleTrialUnder10s(t *testing.T) {
	cases := []struct {
		name    string
		sc      exp.Scenario
		inShort bool
	}{
		{name: "1k-depth2", sc: exp.Scenario{
			Tree: &exp.TreeShape{Branch: 4, Levels: 3, Members: 1000},
			Loss: 0.05, Churn: 1, Policy: "two-phase",
			Msgs: 20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second,
		}},
		{name: "1k-depth3", sc: exp.Scenario{
			Tree: &exp.TreeShape{Branch: 4, Levels: 4, Members: 1000},
			Loss: 0.05, Churn: 1, Policy: "two-phase",
			Msgs: 20, Gap: 20 * time.Millisecond, Horizon: 5 * time.Second,
		}},
		// The 10k XL row. Serial on purpose unless RRMP_SHARDS says
		// otherwise: at this size one heap still beats the barrier overhead
		// (1.5 s serial vs 4 s at 8 shards on the reference 1-core host).
		{name: "10k-depth3", inShort: true, sc: exp.Scenario{
			Tree: &exp.TreeShape{Branch: 4, Levels: 4, Members: 10000},
			Loss: 0.05, LossMode: "hash", Churn: 1, Policy: "two-phase",
			Msgs: 10, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second,
			Shards: envShards(1),
		}},
		// The 100k XL row needs the sharded engine to make the bound: the
		// ~4.2M-event trial runs 6.6 s at 32 shards vs ~27 s serial on the
		// reference host — many small per-lane heaps beat one giant heap.
		{name: "100k-depth3", sc: exp.Scenario{
			Tree: &exp.TreeShape{Branch: 8, Levels: 4, Members: 100000},
			Loss: 0.05, LossMode: "hash", Churn: 1, Policy: "two-phase",
			Msgs: 10, Gap: 20 * time.Millisecond, Horizon: 2 * time.Second,
			Shards: envShards(32),
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.inShort {
				t.Skip("macro trial; skipped with -short")
			}
			start := time.Now()
			out, err := RunScenario(tc.sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			wall := time.Since(start)
			if wall > 10*time.Second {
				t.Fatalf("trial took %v, want < 10s", wall)
			}
			if out["delivery_ratio"] < 0.99 {
				t.Fatalf("delivery ratio %.3f", out["delivery_ratio"])
			}
			t.Logf("%v wall, %.0f events, %.0f events/sec",
				wall, out["events"], out["events"]/wall.Seconds())
		})
	}
}

// TestScaleTrial1M is the acceptance bound for the final rung of the
// scale ladder: the 1M-member hash-burst row (ScaleSweep1M's only cell)
// must finish one trial inside 10 minutes of wall clock with delivery
// intact (~6 min at 32 shards on the 1-core reference host). Even
// sharded, one trial costs minutes, so the test only runs when
// RRMP_SCALE_1M=1 — the BENCH_scale.json regeneration exercises the
// same cell for real. RRMP_SHARDS overrides the shard width.
func TestScaleTrial1M(t *testing.T) {
	if os.Getenv("RRMP_SCALE_1M") == "" {
		t.Skip("set RRMP_SCALE_1M=1 to run the 1M-member macro trial")
	}
	sc := exp.ScaleSweep1M().Expand()[0]
	sc.Shards = envShards(32)
	start := time.Now()
	out, err := RunScenario(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if wall > 10*time.Minute {
		t.Fatalf("trial took %v, want < 10m", wall)
	}
	if out["delivery_ratio"] < 0.99 {
		t.Fatalf("delivery ratio %.3f", out["delivery_ratio"])
	}
	t.Logf("%v wall, %.0f events, %.0f events/sec",
		wall, out["events"], out["events"]/wall.Seconds())
}
