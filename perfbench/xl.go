package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/wire"
)

// lossStreamLabel mirrors runner's unexported label for the hash-loss seed
// stream. The reference check against runner.RunScenario catches drift.
const lossStreamLabel = 0xfeed1055

// sliceStep is the simulated-time slice a traced trial runs between
// Pending() samples.
const sliceStep = 100 * time.Millisecond

// checkedKeys are the runner.RunScenario outputs every driven trial must
// reproduce exactly.
var checkedKeys = []string{
	runner.MKEvents, runner.MKPacketsSent, runner.MKBytesSent,
	runner.MKDeliveryRatio, runner.MKDuplicates,
	runner.MKLocalRequests, runner.MKRemoteRequests, runner.MKRepairs,
	runner.MKRegionalMulticasts, runner.MKHandoffs, runner.MKSearches,
	runner.MKBufferIntegralMsgSec, runner.MKPeakBuffered, runner.MKLongTermEntries,
}

// xlScenario returns the 100k-member row of exp.ScaleSweepXL at the given
// shard width.
func xlScenario(shards int) (exp.Scenario, error) {
	for _, sc := range exp.ScaleSweepXL().Expand() {
		if sc.Tree != nil && sc.Tree.Members == 100000 && sc.Churn == 0 {
			sc.Shards = shards
			return sc, nil
		}
	}
	return exp.Scenario{}, fmt.Errorf("perfbench: exp.ScaleSweepXL has no churn-free 100k row")
}

// isXLCell reports whether sc is the recorded 100k cell (at any width).
func isXLCell(sc exp.Scenario) bool {
	xl, err := xlScenario(sc.Shards)
	return err == nil && sc.Name() == xl.Name() && *sc.Tree == *xl.Tree
}

// checkDrivable rejects scenarios whose RunScenario path does more than
// runXLTrial reproduces: one sender, no faults, the default two-phase
// policy and per-sender hash loss.
func checkDrivable(sc exp.Scenario) error {
	switch {
	case sc.Tree == nil:
		return fmt.Errorf("perfbench: trial needs a tree scenario")
	case sc.Protocol != "" && sc.Protocol != "rrmp":
		return fmt.Errorf("perfbench: trial runs rrmp only, not %q", sc.Protocol)
	case sc.Workload != nil || sc.Churn > 0 || sc.Crash > 0 || sc.PartitionAt > 0:
		return fmt.Errorf("perfbench: trial runs fault-free single-sender cells only")
	case sc.Policy != "two-phase":
		return fmt.Errorf("perfbench: trial runs the two-phase policy only, not %q", sc.Policy)
	case sc.Loss > 0 && (sc.LossMode != "hash" || sc.Burst):
		return fmt.Errorf("perfbench: trial needs Bernoulli hash-mode loss")
	}
	return nil
}

// trialResult is one driven trial: its simulated outputs and host timings.
type trialResult struct {
	out   map[string]float64 // the checkedKeys
	sent  [wire.TypeCount]int64
	deliv [wire.TypeCount]int64
	drop  [wire.TypeCount]int64

	topoS, clusterS, setupS float64
	aggregateS, runS        float64

	// Traced trials only.
	lanes       int
	tr          *tracer
	spans       []span
	pendingPeak int
	pendingMean float64
	members     memberCounts
}

// span is one phase or slice of a traced trial, in ns since trial start.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// memberCounts are the protocol and buffer counters summed over members.
type memberCounts struct {
	delivered, duplicates, localReq, remoteReq, repairs int64
	searches, handoffs, regional                        int64
	evicted                                             [core.EvictPressure + 1]int64
	longTerm, denied                                    int64
}

// runXLTrial drives one trial of sc through runner's public API with the
// setup, event loop and aggregation timed apart. traced wraps the loss,
// latency, policy and receiver boundaries and runs the loop in sliceStep
// slices.
func runXLTrial(sc exp.Scenario, seed uint64, traced bool) (*trialResult, error) {
	if err := checkDrivable(sc); err != nil {
		return nil, err
	}
	res := &trialResult{}
	start := time.Now()
	mark := func(name, parent string, from time.Time) {
		res.spans = append(res.spans, span{Name: name, Parent: parent,
			StartNs: int64(from.Sub(start)), EndNs: int64(time.Since(start))})
	}

	topo, err := topology.BalancedTree(sc.Tree.Branch, sc.Tree.Levels, sc.Tree.Members)
	if err != nil {
		return nil, fmt.Errorf("perfbench: topology: %w", err)
	}
	tTopo := time.Now()
	mark("topology.BalancedTree", "setup", start)

	params := rrmp.DefaultParams()
	if sc.C > 0 {
		params.C = sc.C
	}
	if sc.Lambda > 0 {
		params.Lambda = sc.Lambda
	}
	if sc.RepairBackoff > 0 {
		params.RepairBackoffMax = sc.RepairBackoff
	}
	params.ByteBudget = sc.ByteBudget
	cfg := runner.ClusterConfig{Topo: topo, Params: params, Seed: seed, Shards: sc.Shards}
	var loss netsim.LossModel
	if sc.Loss > 0 {
		hashSeed := rng.New(seed).Split(lossStreamLabel).Uint64()
		loss = netsim.NewHashLoss(hashSeed, sc.Loss, topo.NumNodes(), map[wire.Type]bool{wire.TypeData: true})
	}
	cfg.Loss = loss
	if traced {
		shardOf, lanes := make([]int32, topo.NumNodes()), 1
		if sc.Shards > 1 {
			if ns, eff := topo.NodeShards(sc.Shards); eff > 1 {
				shardOf, lanes = ns, eff
			}
		}
		res.lanes = lanes
		res.tr = newTracer(shardOf, lanes)
		if loss == nil {
			loss = netsim.NoLoss{}
		}
		cfg.Loss = timedLoss{inner: loss, t: res.tr}
		cfg.Latency = timedLatency{
			inner: netsim.HierLatency{Topo: topo, IntraOneWay: runner.IntraOneWay, InterOneWay: runner.InterOneWay},
			t:     res.tr,
		}
		cfg.Lookahead = runner.InterOneWay
		// The default two-phase construction rrmp.NewMember performs when
		// no policy is given.
		cfg.Policy = func(view topology.View, p rrmp.Params) core.Policy {
			inner := core.NewTwoPhase(p.IdleThreshold, p.C, view.NumPeers()+1, p.LongTermTTL)
			return wrapPolicy(inner, res.tr.lane(view.Self))
		}
	}
	tCluster := time.Now()
	c, err := runner.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("perfbench: cluster: %w", err)
	}
	if traced {
		recv := make([]timedReceiver, len(c.Members))
		for n, m := range c.Members {
			recv[n] = timedReceiver{m: m, acc: res.tr.lane(topology.NodeID(n))}
			c.Net.RegisterReceiver(topology.NodeID(n), &recv[n])
		}
	}
	tClusterEnd := time.Now()
	mark("runner.NewCluster", "setup", tCluster)

	tl, _, err := runner.TimelineFor(sc, seed)
	if err != nil {
		return nil, err
	}
	c.Sender.StartSessions()
	ids := make([]wire.MessageID, 0, len(tl))
	payload := make([]byte, tl.MaxBytes())
	for i := range tl {
		ev := tl[i]
		c.Engine.At(ev.At, func() {
			ids = append(ids, c.Sender.Publish(payload[:ev.Bytes]))
		})
	}
	tSetup := time.Now()
	mark("schedule", "setup", tClusterEnd)
	res.topoS = tTopo.Sub(start).Seconds()
	res.clusterS = tClusterEnd.Sub(tCluster).Seconds()
	res.setupS = tSetup.Sub(start).Seconds()

	if traced {
		var pendingSum float64
		nSlices := 0
		for at := sliceStep; ; at += sliceStep {
			if at > sc.Horizon {
				at = sc.Horizon
			}
			t0 := time.Now()
			c.Engine.RunUntil(at)
			mark(fmt.Sprintf("RunUntil(%v)", at), "sim.RunUntil", t0)
			p := c.Engine.Pending()
			pendingSum += float64(p)
			nSlices++
			if p > res.pendingPeak {
				res.pendingPeak = p
			}
			if at == sc.Horizon {
				break
			}
		}
		res.pendingMean = pendingSum / float64(nSlices)
	} else {
		c.Engine.RunUntil(sc.Horizon)
	}
	tLoop := time.Now()

	res.out, res.members = aggregate(c, sc.Msgs)
	st := c.Net.Stats()
	for ty := 0; ty < wire.TypeCount; ty++ {
		res.sent[ty] = st.SentCount(wire.Type(ty))
		res.deliv[ty] = st.DeliveredCount(wire.Type(ty))
		res.drop[ty] = st.DroppedCount(wire.Type(ty))
	}
	tEnd := time.Now()
	mark("aggregate", "run", tLoop)
	res.aggregateS = tEnd.Sub(tLoop).Seconds()
	res.runS = tEnd.Sub(tSetup).Seconds()
	runtime.KeepAlive(c)
	return res, nil
}

// aggregate computes the checked outputs exactly as runner.RunScenario
// does (same summation order, delivery over the nominal msgs), plus the
// member counters the trace reports.
func aggregate(c *runner.Cluster, msgs int) (map[string]float64, memberCounts) {
	var mc memberCounts
	var bufferIntegral float64
	var peak int
	now := c.Engine.Now()
	for _, m := range c.Members {
		mm := m.Metrics()
		mc.delivered += mm.Delivered.Value()
		mc.duplicates += mm.Duplicates.Value()
		mc.localReq += mm.LocalReqSent.Value()
		mc.remoteReq += mm.RemoteReqSent.Value()
		mc.repairs += mm.RepairsSent.Value()
		mc.regional += mm.RegionalMulticasts.Value()
		mc.handoffs += mm.HandoffsSent.Value()
		mc.searches += mm.SearchesStarted.Value()
		buf := m.Buffer()
		bufferIntegral += buf.OccupancyIntegral(now)
		if p := buf.PeakLen(); p > peak {
			peak = p
		}
		for r := core.EvictIdle; r <= core.EvictPressure; r++ {
			mc.evicted[r] += int64(buf.EvictedCount(r))
		}
		mc.longTerm += int64(buf.LongTermCount())
		mc.denied += int64(buf.DeniedCount())
	}
	st := c.Net.Stats()
	out := map[string]float64{
		runner.MKEvents:               float64(c.Engine.Processed()),
		runner.MKPacketsSent:          float64(st.TotalSent()),
		runner.MKBytesSent:            float64(st.TotalBytes()),
		runner.MKDuplicates:           float64(mc.duplicates),
		runner.MKLocalRequests:        float64(mc.localReq),
		runner.MKRemoteRequests:       float64(mc.remoteReq),
		runner.MKRepairs:              float64(mc.repairs),
		runner.MKRegionalMulticasts:   float64(mc.regional),
		runner.MKHandoffs:             float64(mc.handoffs),
		runner.MKSearches:             float64(mc.searches),
		runner.MKBufferIntegralMsgSec: bufferIntegral,
		runner.MKPeakBuffered:         float64(peak),
		runner.MKLongTermEntries:      float64(mc.longTerm),
	}
	if msgs > 0 {
		out[runner.MKDeliveryRatio] = float64(mc.delivered) / float64(len(c.Members)*msgs)
	}
	return out, mc
}

// diffOutputs lists every checked key on which got differs from want.
func diffOutputs(got, want map[string]float64) []string {
	var diffs []string
	for _, k := range checkedKeys {
		g, gok := got[k]
		w, wok := want[k]
		if gok != wok || g != w {
			diffs = append(diffs, fmt.Sprintf("%s: got %v want %v", k, g, w))
		}
	}
	return diffs
}

// diffPackets compares two trials' per-type traffic counters.
func diffPackets(a, b *trialResult) []string {
	var diffs []string
	for ty := 0; ty < wire.TypeCount; ty++ {
		if a.sent[ty] != b.sent[ty] || a.deliv[ty] != b.deliv[ty] || a.drop[ty] != b.drop[ty] {
			diffs = append(diffs, fmt.Sprintf("%v packets: sent/delivered/dropped %d/%d/%d vs %d/%d/%d",
				wire.Type(ty), a.sent[ty], a.deliv[ty], a.drop[ty], b.sent[ty], b.deliv[ty], b.drop[ty]))
		}
	}
	return diffs
}
