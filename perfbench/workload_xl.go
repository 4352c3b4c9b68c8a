package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/wire"
)

// processStart anchors the wall-clock cap that keeps every run well inside
// the benchmark's per-run time limit.
var processStart = time.Now()

// wallCap bounds a run's total wall time: no repetition starts if it
// would likely end past it.
const wallCap = 150 * time.Second

// another reports whether an untraced run should start repetition k,
// given when its timed repetitions began and how long the last one took:
// always below minimum, then while the next one would end less than half
// a repetition past the measurement time, and never past wallCap.
func another(k, minimum int, begin time.Time, last time.Duration, seconds float64) bool {
	if k < minimum {
		return true
	}
	if time.Since(processStart)+last*3/2 >= wallCap {
		return false
	}
	return time.Since(begin)+last/2 < time.Duration(seconds*float64(time.Second))
}

// runXL measures the 100k-member cell at the given shard width.
func runXL(o options, shards int) (*outcome, error) {
	sc, err := xlScenario(shards)
	if err != nil {
		return nil, err
	}
	out, want, check, err := newXLChecker(sc, o.seed, o.traced)
	if err != nil {
		return nil, err
	}
	if o.traced {
		return traceXL(o, sc, out, want, check)
	}

	var setups, runs, peaks []float64
	begin := time.Now()
	var last time.Duration
	for k := 0; another(k, 3, begin, last, o.seconds); k++ {
		settle()
		t0 := time.Now()
		r, err := runXLTrial(sc, o.seed, false)
		if err != nil {
			out.check(fmt.Sprintf("trial %d", k), []string{err.Error()})
			break
		}
		peaks = append(peaks, peakRSSMB())
		last = time.Since(t0)
		check(fmt.Sprintf("trial %d", k), r)
		setups = append(setups, r.setupS)
		runs = append(runs, r.runS)
	}
	runS := median(runs)
	out.set("setup_s", median(setups), "s")
	out.set("run_s", runS, "s")
	out.set("events_per_s", want[runner.MKEvents]/runS, "1/s")
	out.set("peak_rss_mb", median(peaks), "MB")
	out.set("pass_ratio", float64(out.attempted-out.failed)/float64(out.attempted), "ratio")
	out.set("delivery_ratio", want[runner.MKDeliveryRatio], "ratio")
	out.set("buffer_integral_msgsec", want[runner.MKBufferIntegralMsgSec], "msg.s")
	fmt.Printf("trials: %d timed, run_s %v, setup_s %v\n", len(runs), runs, setups)
	return out, nil
}

// newXLChecker returns the reference outputs for sc and seed, and an
// outcome with a check that compares a driven trial with them, with the
// recorded per-type traffic (when the seed is recorded) and with the first
// trial checked. The reference is the recorded runner.RunScenario output
// when there is one; otherwise, or when live is set, runner.RunScenario
// runs now (and must itself match the recording).
func newXLChecker(sc exp.Scenario, seed uint64, live bool) (*outcome, map[string]float64, func(string, *trialResult), error) {
	ref, err := loadReference()
	if err != nil {
		return nil, nil, nil, err
	}
	out := &outcome{metrics: map[string]metric{}}
	recorded, haveRec := ref.XL[seedKey(seed)]
	haveRec = haveRec && isXLCell(sc)
	want := recorded.Outputs
	if !haveRec || live {
		want, err = runner.RunScenario(sc, seed)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("perfbench: reference RunScenario: %w", err)
		}
		if haveRec {
			out.check("RunScenario vs recorded reference", diffOutputs(want, recorded.Outputs))
		}
	}
	var first *trialResult
	check := func(what string, r *trialResult) {
		diffs := diffOutputs(r.out, want)
		if haveRec {
			diffs = append(diffs, diffReference(r, recorded)...)
		}
		if first == nil {
			first = r
		} else {
			diffs = append(diffs, diffPackets(r, first)...)
		}
		out.check(what, diffs)
	}
	return out, want, check, nil
}

// traceXL runs one untraced and one traced trial, checks that both
// reproduce RunScenario, and reports the per-module view of the traced
// one.
func traceXL(o options, sc exp.Scenario, out *outcome, want map[string]float64,
	check func(string, *trialResult)) (*outcome, error) {
	settle()
	u, err := runXLTrial(sc, o.seed, false)
	if err != nil {
		return nil, err
	}
	check("untraced trial", u)

	settle()
	before := readRuntime()
	heap := startHeapSampler(10 * time.Millisecond)
	t, err := runXLTrial(sc, o.seed, true)
	heapPeak := heap.finish()
	if err != nil {
		return nil, err
	}
	rt := readRuntime().sub(before)
	check("traced trial", t)

	L := float64(t.lanes)
	tot := t.tr.totals()
	var runUntilNs int64
	for _, s := range t.spans {
		if s.Parent == "sim.RunUntil" {
			runUntilNs += s.EndNs - s.StartNs
		}
	}
	ns := func(v int64) float64 { return float64(v) / 1e9 }
	childrenOf := func(p int) int64 { return tot.policy[p].ns + tot.loss[p].ns + tot.latency[p].ns }
	var busy int64
	for i := range t.tr.lanes {
		busy += t.tr.lanes[i].busyNs()
	}
	runUntilS := ns(runUntilNs)
	simSelf := (L*runUntilS - ns(busy)) / L
	handlerSelf := ns(tot.handler.ns - childrenOf(parentRRMP))
	policyS := ns(tot.policy[parentSim].ns + tot.policy[parentRRMP].ns)
	lossS := ns(tot.loss[parentSim].ns + tot.loss[parentRRMP].ns)
	latS := ns(tot.latency[parentSim].ns + tot.latency[parentRRMP].ns)
	unattributed := t.runS - runUntilS - t.aggregateS
	overhead := t.runS - u.runS

	m := out.set
	m("topology.build_s", t.topoS, "s")
	m("runner.new_cluster_s", t.clusterS, "s")
	m("runner.aggregate_s", t.aggregateS, "s")
	m("sim.events", want[runner.MKEvents], "count")
	m("sim.run_self_s", simSelf, "s")
	m("sim.pending_peak", float64(t.pendingPeak), "count")
	m("sim.pending_mean", t.pendingMean, "count")
	laneMax, laneMean, callsMax, callsMean, idle := 0.0, 0.0, 0.0, 0.0, 0.0
	if t.lanes > 1 {
		for i := range t.tr.lanes {
			a := &t.tr.lanes[i]
			laneMax = max(laneMax, ns(a.handler.ns))
			laneMean += ns(a.handler.ns) / L
			callsMax = max(callsMax, float64(a.handler.calls))
			callsMean += float64(a.handler.calls) / L
		}
		idle = L*t.runS - ns(busy)
	}
	m("sim.lane_handler_s.max", laneMax, "s")
	m("sim.lane_handler_s.mean", laneMean, "s")
	m("sim.lane_imbalance", ratio(callsMax, callsMean), "ratio")
	m("sim.barrier_idle_s", idle, "s")
	for ty := 1; ty < wire.TypeCount; ty++ {
		name := wire.Type(ty).String()
		m("netsim.sent."+name, float64(t.sent[ty]), "count")
		m("netsim.delivered."+name, float64(t.deliv[ty]), "count")
		m("netsim.dropped."+name, float64(t.drop[ty]), "count")
	}
	m("netsim.sent_total", want[runner.MKPacketsSent], "count")
	m("netsim.loss_calls", float64(tot.loss[parentSim].calls+tot.loss[parentRRMP].calls), "count")
	m("netsim.loss_s", lossS, "s")
	m("netsim.latency_calls", float64(tot.latency[parentSim].calls+tot.latency[parentRRMP].calls), "count")
	m("netsim.latency_s", latS, "s")
	m("netsim.cross_shard_packets", float64(tot.crossShard), "count")
	mc := t.members
	m("rrmp.handler_calls", float64(tot.handler.calls), "count")
	m("rrmp.handler_s", ns(tot.handler.ns), "s")
	m("rrmp.handler_self_s", handlerSelf, "s")
	m("rrmp.local_requests", float64(mc.localReq), "count")
	m("rrmp.remote_requests", float64(mc.remoteReq), "count")
	m("rrmp.repairs", float64(mc.repairs), "count")
	m("rrmp.searches", float64(mc.searches), "count")
	m("rrmp.handoffs", float64(mc.handoffs), "count")
	m("rrmp.duplicate_ratio", ratio(float64(mc.duplicates), float64(mc.delivered)), "ratio")
	m("rrmp.repairs_per_request", ratio(float64(mc.repairs), float64(mc.localReq+mc.remoteReq)), "ratio")
	m("core.policy_calls", float64(tot.policy[parentSim].calls+tot.policy[parentRRMP].calls), "count")
	m("core.policy_s", policyS, "s")
	m("core.stores", float64(tot.stores), "count")
	m("core.promotions", float64(tot.promotions), "count")
	for r := core.EvictIdle; r <= core.EvictPressure; r++ {
		m("core.evictions."+r.String(), float64(mc.evicted[r]), "count")
	}
	m("core.long_term", float64(mc.longTerm), "count")
	m("core.pressure_evictions", float64(mc.evicted[core.EvictPressure]), "count")
	m("core.budget_denials", float64(mc.denied), "count")
	setExpZero(out)
	setRuntime(out, rt, heapPeak)
	m("trace.run_s", t.runS, "s")
	m("trace.untraced_run_s", u.runS, "s")
	m("trace.overhead_s", overhead, "s")
	m("trace.unattributed_s", unattributed, "s")

	basis, simRow := "wall seconds", "sim (eventq, loop)"
	if t.lanes > 1 {
		basis = fmt.Sprintf("lane-seconds / %d lanes", t.lanes)
		simRow = "sim (eventq, loop, barriers)"
	}
	out.table = &moduleTable{
		Workload: o.workload, RunS: t.runS, Basis: basis, OverheadS: overhead,
		Rows: []moduleRow{
			{Module: simRow, Calls: int64(want[runner.MKEvents]), TotalS: runUntilS, SelfS: simSelf},
			{Module: "rrmp (handlers)", Calls: tot.handler.calls, TotalS: ns(tot.handler.ns) / L, SelfS: handlerSelf / L},
			{Module: "core (policy)", Calls: tot.policy[parentSim].calls + tot.policy[parentRRMP].calls, TotalS: policyS / L, SelfS: policyS / L},
			{Module: "netsim (loss+latency)", Calls: tot.loss[parentSim].calls + tot.loss[parentRRMP].calls +
				tot.latency[parentSim].calls + tot.latency[parentRRMP].calls, TotalS: (lossS + latS) / L, SelfS: (lossS + latS) / L},
			{Module: "runner (aggregate)", Calls: 1, TotalS: t.aggregateS, SelfS: t.aggregateS},
			{Module: "unattributed", TotalS: unattributed, SelfS: unattributed},
		},
		Outside: []moduleRow{
			{Module: "topology (build, setup)", Calls: 1, TotalS: t.topoS, SelfS: t.topoS},
			{Module: "runner (NewCluster, setup)", Calls: 1, TotalS: t.clusterS, SelfS: t.clusterS},
			{Module: "runtime (GC CPU, overlaps rows)", Calls: int64(rt.gcCycles), TotalS: rt.gcCPUSeconds, SelfS: rt.gcCPUSeconds},
		},
	}
	out.trace = xlTrace(t)
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// callRecord is one (module, parent) pair in the written trace.
type callRecord struct {
	Module string `json:"module"`
	Parent string `json:"parent"`
	Lane   int    `json:"lane"`
	Calls  int64  `json:"calls"`
	Ns     int64  `json:"ns"`
}

func xlTrace(t *trialResult) map[string]any {
	parents := [numParents]string{"sim", "rrmp"}
	var calls []callRecord
	for i := range t.tr.lanes {
		a := &t.tr.lanes[i]
		calls = append(calls, callRecord{"rrmp", "sim", i, a.handler.calls, a.handler.ns})
		for p := 0; p < numParents; p++ {
			calls = append(calls,
				callRecord{"core", parents[p], i, a.policy[p].calls, a.policy[p].ns},
				callRecord{"netsim.loss", parents[p], i, a.loss[p].calls, a.loss[p].ns},
				callRecord{"netsim.latency", parents[p], i, a.latency[p].calls, a.latency[p].ns})
		}
	}
	return map[string]any{"spans": t.spans, "calls": calls}
}
