package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
)

// sweepWorkers is the sweep's worker-pool width (the host's two cores).
const sweepWorkers = 2

// setupReps is how many times a sweep run times its set-up phase.
const setupReps = 101

// standingSweeps is the rrmp-sim -sweep family: the standing matrix, then
// the workload and adaptive-policy families.
func standingSweeps() []exp.Sweep {
	return []exp.Sweep{exp.DefaultSweep(), exp.WorkloadSweep(), exp.AdaptiveSweep()}
}

func sweepOptions(seed uint64) exp.Options {
	return exp.Options{Trials: 1, Parallel: sweepWorkers, BaseSeed: seed}
}

// sweepSetup is everything a sweep does before its first trial: build the
// sweep family, validate it and expand its cells.
func sweepSetup() ([]exp.Sweep, error) {
	sweeps := standingSweeps()
	for _, sw := range sweeps {
		if err := sw.Validate(); err != nil {
			return nil, err
		}
		sw.Expand()
	}
	return sweeps, nil
}

func reportDigest(rep exp.Report) (string, error) {
	blob, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

func reportEvents(rep exp.Report) float64 {
	var ev float64
	for _, c := range rep.Cells {
		m, _ := c.Aggregate.Metric(runner.MKEvents)
		ev += m.Mean * float64(m.N)
	}
	return ev
}

// reportMeans returns the mean over cells of the delivery ratio and the
// buffer integral (cells reporting the key).
func reportMeans(rep exp.Report) (delivery, integral float64) {
	var nd, ni int
	for _, c := range rep.Cells {
		if m, ok := c.Aggregate.Metric(runner.MKDeliveryRatio); ok {
			delivery += m.Mean
			nd++
		}
		if m, ok := c.Aggregate.Metric(runner.MKBufferIntegralMsgSec); ok {
			integral += m.Mean
			ni++
		}
	}
	return delivery / float64(max(nd, 1)), integral / float64(max(ni, 1))
}

// newSweepChecker returns an outcome with a check that compares a sweep
// report with the recorded digest for seed (when the report is of the
// standing family and the seed is recorded) and with the first report
// checked.
func newSweepChecker(seed uint64, standing bool) (*outcome, func(string, exp.Report), error) {
	ref, err := loadReference()
	if err != nil {
		return nil, nil, err
	}
	out := &outcome{metrics: map[string]metric{}}
	recorded, haveRec := ref.Sweep[seedKey(seed)]
	haveRec = haveRec && standing
	var firstDigest string
	check := func(what string, rep exp.Report) {
		digest, err := reportDigest(rep)
		var diffs []string
		switch {
		case err != nil:
			diffs = append(diffs, err.Error())
		case haveRec && digest != recorded.Digest:
			diffs = append(diffs, fmt.Sprintf("report digest %s, recorded %s", digest, recorded.Digest))
		case firstDigest != "" && digest != firstDigest:
			diffs = append(diffs, fmt.Sprintf("report digest %s, first run %s", digest, firstDigest))
		}
		if firstDigest == "" {
			firstDigest = digest
		}
		out.check(what, diffs)
	}
	return out, check, nil
}

// runSweep measures the standing sweep family at two workers.
func runSweep(o options) (*outcome, error) {
	out, check, err := newSweepChecker(o.seed, true)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var sweeps []exp.Sweep
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		sw, err := sweepSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sweeps = sw
	}

	if o.traced {
		return traceSweep(o, sweeps, out, check)
	}

	var runs, peaks []float64
	var rep exp.Report
	begin := time.Now()
	var last time.Duration
	for k := 0; another(k, 3, begin, last, o.seconds); k++ {
		settle()
		t0 := time.Now()
		rep, err = runner.RunSweeps(sweepOptions(o.seed), sweeps...)
		last = time.Since(t0)
		if err != nil {
			out.check(fmt.Sprintf("sweep %d", k), []string{err.Error()})
			break
		}
		peaks = append(peaks, peakRSSMB())
		runs = append(runs, last.Seconds())
		check(fmt.Sprintf("sweep %d", k), rep)
	}
	runS := median(runs)
	delivery, integral := reportMeans(rep)
	out.set("setup_s", median(setups), "s")
	out.set("run_s", runS, "s")
	out.set("events_per_s", reportEvents(rep)/runS, "1/s")
	out.set("peak_rss_mb", median(peaks), "MB")
	out.set("pass_ratio", float64(out.attempted-out.failed)/float64(out.attempted), "ratio")
	out.set("delivery_ratio", delivery, "ratio")
	out.set("buffer_integral_msgsec", integral, "msg.s")
	fmt.Printf("sweeps: %d timed, run_s %v\n", len(runs), runs)
	return out, nil
}

// trialSpan is one timed sweep trial.
type trialSpan struct {
	Cell     string             `json:"cell"`
	Protocol string             `json:"protocol"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	metrics  map[string]float64 // the trial's outputs
	sc       exp.Scenario
}

// traceSweep runs the family once untraced and once through exp.RunSweeps
// with a timed runner.RunScenario, checks both reports against each other
// and the reference, and reports the per-trial module view.
func traceSweep(o options, sweeps []exp.Sweep, out *outcome, check func(string, exp.Report)) (*outcome, error) {
	settle()
	t0 := time.Now()
	rep, err := runner.RunSweeps(sweepOptions(o.seed), sweeps...)
	if err != nil {
		return nil, err
	}
	untracedS := time.Since(t0).Seconds()
	check("untraced sweep", rep)

	var (
		mu    sync.Mutex
		spans []trialSpan
	)
	settle()
	before := readRuntime()
	heap := startHeapSampler(10 * time.Millisecond)
	start := time.Now()
	timed := func(sc exp.Scenario, seed uint64) (map[string]float64, error) {
		t := time.Now()
		m, err := runner.RunScenario(sc, seed)
		end := time.Now()
		proto := "rrmp"
		if sc.Protocol == "rmtp" {
			proto = "rmtp"
		}
		mu.Lock()
		spans = append(spans, trialSpan{Cell: sc.Name(), Protocol: proto,
			StartNs: int64(t.Sub(start)), EndNs: int64(end.Sub(start)), metrics: m, sc: sc})
		mu.Unlock()
		return m, err
	}
	// runner.RunSweeps is this call plus an ExecNote that stays empty at
	// the default shard width, so the two reports must match byte for byte.
	traced, err := exp.RunSweeps(sweepOptions(o.seed), sweeps, timed)
	runS := time.Since(start).Seconds()
	heapPeak := heap.finish()
	if err != nil {
		return nil, err
	}
	rt := readRuntime().sub(before)
	check("traced sweep", traced)

	// counts sums the rrmp trials' outputs; events and packets sum over
	// both kernels.
	var (
		trialS          []float64
		sumRRMP, sumRMT float64
		nRMTP           int
		lastEnd         int64
		counts          = map[string]float64{}
		delivered       float64
		events, sent    float64
	)
	for _, s := range spans {
		d := float64(s.EndNs-s.StartNs) / 1e9
		trialS = append(trialS, d)
		lastEnd = max(lastEnd, s.EndNs)
		events += s.metrics[runner.MKEvents]
		sent += s.metrics[runner.MKPacketsSent]
		if s.Protocol == "rmtp" {
			sumRMT += d
			nRMTP++
			continue
		}
		sumRRMP += d
		for k, v := range s.metrics {
			counts[k] += v
		}
		delivered += s.metrics[runner.MKDeliveryRatio] * float64(members(s.sc)) * publishes(s)
	}
	poolS := float64(lastEnd) / 1e9
	aggS := runS - poolS
	W := float64(sweepWorkers)
	idle := W*poolS - sumRRMP - sumRMT

	m := out.set
	m("topology.build_s", 0, "s")
	m("runner.new_cluster_s", 0, "s")
	m("runner.aggregate_s", 0, "s")
	m("sim.events", events, "count")
	for _, name := range []string{"sim.run_self_s", "sim.pending_peak", "sim.pending_mean",
		"sim.lane_handler_s.max", "sim.lane_handler_s.mean", "sim.lane_imbalance", "sim.barrier_idle_s"} {
		m(name, 0, unitOf(name))
	}
	setNetsimZero(out)
	m("netsim.sent_total", sent, "count")
	for _, name := range []string{"rrmp.handler_calls", "rrmp.handler_s", "rrmp.handler_self_s",
		"core.policy_calls", "core.policy_s", "core.stores", "core.promotions"} {
		m(name, 0, unitOf(name))
	}
	m("rrmp.local_requests", counts[runner.MKLocalRequests], "count")
	m("rrmp.remote_requests", counts[runner.MKRemoteRequests], "count")
	m("rrmp.repairs", counts[runner.MKRepairs], "count")
	m("rrmp.searches", counts[runner.MKSearches], "count")
	m("rrmp.handoffs", counts[runner.MKHandoffs], "count")
	m("rrmp.duplicate_ratio", ratio(counts[runner.MKDuplicates], delivered), "ratio")
	m("rrmp.repairs_per_request", ratio(counts[runner.MKRepairs],
		counts[runner.MKLocalRequests]+counts[runner.MKRemoteRequests]), "ratio")
	for _, r := range evictReasons() {
		m("core.evictions."+r, 0, "count")
	}
	m("core.long_term", counts[runner.MKLongTermEntries], "count")
	m("core.pressure_evictions", counts[runner.MKPressureEvictions], "count")
	m("core.budget_denials", counts[runner.MKBudgetDenials], "count")
	m("exp.trials", float64(len(spans)), "count")
	m("exp.trial_s.p50", percentile(trialS, 50), "s")
	m("exp.trial_s.p98", percentile(trialS, 98), "s")
	m("exp.trial_s.sum.rrmp", sumRRMP, "s")
	m("exp.trial_s.sum.rmtp", sumRMT, "s")
	m("exp.worker_busy_frac", ratio(sumRRMP+sumRMT, W*poolS), "ratio")
	m("rmtp.trials", float64(nRMTP), "count")
	setRuntime(out, rt, heapPeak)
	m("trace.run_s", runS, "s")
	m("trace.untraced_run_s", untracedS, "s")
	m("trace.overhead_s", runS-untracedS, "s")
	m("trace.unattributed_s", 0, "s")

	out.table = &moduleTable{
		Workload: o.workload, RunS: runS, OverheadS: runS - untracedS,
		Basis: fmt.Sprintf("worker-seconds / %d workers", sweepWorkers),
		Rows: []moduleRow{
			{Module: "rrmp (whole trials)", Calls: int64(len(spans) - nRMTP), TotalS: sumRRMP / W, SelfS: sumRRMP / W},
			{Module: "rmtp (whole trials)", Calls: int64(nRMTP), TotalS: sumRMT / W, SelfS: sumRMT / W},
			{Module: "exp (idle workers)", TotalS: idle / W, SelfS: idle / W},
			{Module: "exp (aggregate report)", Calls: 1, TotalS: aggS, SelfS: aggS},
			{Module: "unattributed", TotalS: 0, SelfS: 0},
		},
		Outside: []moduleRow{
			{Module: "runtime (GC CPU, overlaps rows)", Calls: int64(rt.gcCycles), TotalS: rt.gcCPUSeconds, SelfS: rt.gcCPUSeconds},
		},
	}
	out.trace = map[string]any{"trials": spans}
	return out, nil
}

// members is a scenario's member count.
func members(sc exp.Scenario) int {
	if sc.Tree != nil {
		return sc.Tree.Members
	}
	n := 0
	for _, r := range sc.Regions {
		n += r
	}
	return n
}

// publishes is the delivery-ratio denominator's message count: the
// workload's publish count, or the nominal Msgs of a legacy cell.
func publishes(s trialSpan) float64 {
	if p, ok := s.metrics[runner.MKPublishes]; ok {
		return p
	}
	return float64(s.sc.Msgs)
}
