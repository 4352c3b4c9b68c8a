// This file emits RRMP sweep cells; the metrickey analyzer checks that
// only keys gated to rrmp (or both) appear here.
//
//metrics:scope rrmp
package runner

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netsim"
	policyspec "repro/internal/policy"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Churn and loss draw from dedicated streams split off the trial seed with
// labels far above any node id (member streams use labels 1..NumNodes).
const (
	lossStreamLabel = 0xfeed1055
	// ChurnStreamLabel derives the churn stream; exported so rrmp-sim's
	// single-run mode schedules the identical leave sequence for a seed.
	ChurnStreamLabel = 0xfeedc4a2
	// CrashStreamLabel derives the crash-fault stream, independent of the
	// churn stream so adding crashes never perturbs the leave sequence.
	CrashStreamLabel = 0xfeedc4a5
	// PayloadStreamLabel derives the payload-size stream for randomized
	// payload models. Fixed-size scenarios (including the historic
	// 256-byte default) never touch it, so pre-axis runs replay
	// byte-identically.
	PayloadStreamLabel = 0xfeed9a7d
	// memberStreamBase anchors the per-member counter-hash family: member
	// node draws from Split(memberStreamBase + node), i.e. labels
	// 1..NumNodes, which is why the dedicated streams above sit far
	// higher.
	memberStreamBase = 1
	// clusterRootStreamLabel derives the cluster's own root stream (the
	// member family is split off it, keeping protocol draws independent
	// of harness draws made directly on the trial seed).
	clusterRootStreamLabel = 0xaaaa
)

// PayloadSizesFor draws the n per-publish payload sizes for a scenario's
// size model around the mean (0 = the historic 256 bytes). The second
// result is the largest drawn size, so drivers can serve every publish
// from one shared backing buffer instead of allocating per message.
func PayloadSizesFor(model string, mean, n int, seed uint64) ([]int, int, error) {
	m, err := workload.NewSizeModel(model, mean)
	if err != nil {
		return nil, 0, err
	}
	var r *rng.Source
	if !workload.Deterministic(m) {
		r = rng.New(seed).Split(PayloadStreamLabel)
	}
	sizes := workload.Sizes(m, n, r)
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return sizes, max, nil
}

// ScheduleChurn draws Poisson-timed events on distinct random candidates
// at the given rate (events/second) until the horizon, invoking schedule
// for each (time, victim) pair, and returns how many it scheduled. It
// consumes candidates without replacement, so no member is picked twice.
// rrmp-sim's single-run mode and RunScenario share this construction for
// graceful leaves (ChurnStreamLabel) and crash faults (CrashStreamLabel).
func ScheduleChurn(r *rng.Source, rate float64, horizon time.Duration,
	candidates []topology.NodeID, schedule func(at time.Duration, victim topology.NodeID)) int {
	if rate <= 0 {
		return 0
	}
	pool := append([]topology.NodeID(nil), candidates...)
	leaves := 0
	at := time.Duration(r.ExpFloat64(rate) * float64(time.Second))
	for at < horizon && len(pool) > 0 {
		i := r.Intn(len(pool))
		victim := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		schedule(at, victim)
		leaves++
		at += time.Duration(r.ExpFloat64(rate) * float64(time.Second))
	}
	return leaves
}

// PartitionClasses splits the topology into two halves for a partition
// cut. With multiple regions the cut is region-granular: the first
// ceil(R/2) regions (the sender's side) form class 0, the rest class 1.
// A single-region topology splits its member list down the middle, with
// the sender's half in class 0. The same topology always yields the same
// cut, so partition scenarios are pure functions of (scenario, seed).
func PartitionClasses(topo *topology.Topology) map[topology.NodeID]int {
	classes := make(map[topology.NodeID]int, topo.NumNodes())
	if topo.NumRegions() > 1 {
		cut := (topo.NumRegions() + 1) / 2
		for r := 0; r < topo.NumRegions(); r++ {
			side := 0
			if r >= cut {
				side = 1
			}
			for _, n := range topo.Members(topology.RegionID(r)) {
				classes[n] = side
			}
		}
		return classes
	}
	members := topo.Members(0)
	for i, n := range members {
		if i >= (len(members)+1)/2 {
			classes[n] = 1
		}
	}
	return classes
}

// scenarioLoss builds a scenario's DATA loss model from its dedicated rng
// stream (nil when lossless). Both protocol kernels share it, so a seeded
// cell drops the identical DATA packets under RRMP and RMTP — the common-
// random-numbers design extended to the protocol axis. nNodes sizes the
// hash-mode model's per-sender state.
func scenarioLoss(sc exp.Scenario, seed uint64, nNodes int) (netsim.LossModel, error) {
	if sc.Loss <= 0 {
		return nil, nil
	}
	only := map[wire.Type]bool{wire.TypeData: true}
	switch sc.LossMode {
	case "":
		// Legacy shared-stream models: draws consume one global rng in send
		// order, entangling every sender. Deterministic, but only on a
		// single loop (see effectiveShards).
	case "hash":
		// Per-pair counter-hash streams: shard-safe, so lossy cells can
		// run parallel. Seeded from the trial seed like the legacy stream.
		// Burst cells get the Gilbert–Elliott chain under the same legacy
		// parameterization (PGood=Loss/4, PBad/PGB/PBG fixed), with the
		// chain advanced by hash draws instead of the shared rng.
		hashSeed := rng.New(seed).Split(lossStreamLabel).Uint64()
		if sc.Burst {
			return netsim.NewHashBurstLoss(hashSeed,
				sc.Loss/4, 0.9, 0.02, 0.2, nNodes, only), nil
		}
		return netsim.NewHashLoss(hashSeed, sc.Loss, nNodes, only), nil
	default:
		return nil, fmt.Errorf("runner: unknown scenario loss mode %q", sc.LossMode)
	}
	lossRng := rng.New(seed).Split(lossStreamLabel)
	if sc.Burst {
		return &netsim.GilbertElliott{
			PGood: sc.Loss / 4, PBad: 0.9,
			PGB: 0.02, PBG: 0.2,
			Only: only, Rng: lossRng,
		}, nil
	}
	return &netsim.BernoulliLoss{P: sc.Loss, Only: only, Rng: lossRng}, nil
}

// effectiveShards gates a scenario's Shards knob on shard safety: the
// legacy loss models draw from one rng stream in global send order, which
// only a single loop reproduces, so scenarios using them run at width 1
// (where byte-identity is trivial). Lossless and hash-mode scenarios —
// Bernoulli (HashLoss) and burst (HashBurstLoss) alike — run genuinely
// parallel. The rmtp kernel always runs at width 1.
func effectiveShards(sc exp.Scenario) int {
	if sc.Shards <= 1 {
		return 1
	}
	if sc.Loss > 0 && sc.LossMode != "hash" {
		return 1
	}
	return sc.Shards
}

// faultInjector abstracts one protocol's fault operations so both kernels
// schedule the identical fault timeline: the common-random-numbers design
// across the protocol axis is only valid while the scheduling code is
// literally shared, not merely similar.
type faultInjector struct {
	// excused reports whether the victim already left or crashed (a
	// member drawn by both Poisson streams only has its first fault
	// injected, and faults are counted at execution time).
	excused func(victim topology.NodeID) bool
	leave   func(victim topology.NodeID)
	crash   func(victim topology.NodeID)
	recover func(victim topology.NodeID)
}

// scheduleScenarioFaults schedules the scenario's churn, crash/recover and
// partition timelines on the simulator from the shared dedicated streams
// (ChurnStreamLabel, CrashStreamLabel), exactly as both protocol kernels
// require: churn events first, then crash events (each with its optional
// recovery), then the partition cut/heal pair. protected lists the nodes
// faults must never hit — the publisher set (the sender alone in legacy
// cells, so their candidate lists keep their historical order); the sender
// is excluded regardless. The returned counters are live — read them
// after the run.
func scheduleScenarioFaults(c *sim.Sim, net *netsim.Network, topo *topology.Topology,
	all []topology.NodeID, sc exp.Scenario, seed uint64,
	protected []topology.NodeID, inj faultInjector) (leaves, crashes *int) {
	leaves, crashes = new(int), new(int)
	var candidates []topology.NodeID
	if sc.Churn > 0 || sc.Crash > 0 {
		shielded := make(map[topology.NodeID]bool, len(protected)+1)
		shielded[topo.Sender()] = true
		for _, p := range protected {
			shielded[p] = true
		}
		candidates = make([]topology.NodeID, 0, topo.NumNodes()-1)
		for _, n := range all {
			if !shielded[n] {
				candidates = append(candidates, n)
			}
		}
	}
	if sc.Churn > 0 {
		ScheduleChurn(rng.New(seed).Split(ChurnStreamLabel), sc.Churn, sc.Horizon,
			candidates, func(at time.Duration, victim topology.NodeID) {
				c.At(at, func() {
					if inj.excused(victim) {
						return
					}
					inj.leave(victim)
					*leaves++
				})
			})
	}
	if sc.Crash > 0 {
		ScheduleChurn(rng.New(seed).Split(CrashStreamLabel), sc.Crash, sc.Horizon,
			candidates, func(at time.Duration, victim topology.NodeID) {
				c.At(at, func() {
					if inj.excused(victim) {
						return
					}
					inj.crash(victim)
					*crashes++
				})
				if sc.CrashRecover > 0 {
					c.At(at+sc.CrashRecover, func() { inj.recover(victim) })
				}
			})
	}
	if sc.PartitionAt > 0 {
		classes := PartitionClasses(topo)
		c.At(sc.PartitionAt, func() { net.SetPartition(classes) })
		if sc.PartitionDur > 0 {
			c.At(sc.PartitionAt+sc.PartitionDur, func() { net.ClearPartition() })
		}
	}
	return leaves, crashes
}

// reachMetrics fills the delivery/reach keys both protocol kernels share:
// overall delivery ratio, the worst message's reach, and the
// survivor-scoped variants (crashed and departed members are excused, so
// these read as the reliability guarantee under the fault threat model).
// msgs is the publish-count denominator: the scenario's nominal Msgs for
// legacy cells (the historic contract), the timeline's actual publish
// count for workload cells.
func reachMetrics(out map[string]float64, msgs, nNodes, survivors int,
	delivered int64, ids []wire.MessageID,
	received func(node topology.NodeID, id wire.MessageID) bool,
	survivor func(node topology.NodeID) bool) {
	if msgs <= 0 {
		return
	}
	out[MKDeliveryRatio] = float64(delivered) / float64(nNodes*msgs)
	minReach := nNodes
	survMinReach := survivors
	var survDelivered int64
	for _, id := range ids {
		got, survGot := 0, 0
		for node := topology.NodeID(0); int(node) < nNodes; node++ {
			if !received(node, id) {
				continue
			}
			got++
			if survivor(node) {
				survGot++
			}
		}
		if got < minReach {
			minReach = got
		}
		if survGot < survMinReach {
			survMinReach = survGot
		}
		survDelivered += int64(survGot)
	}
	out[MKMinReachFrac] = float64(minReach) / float64(nNodes)
	if survivors > 0 {
		out[MKSurvivorDeliveryRatio] = float64(survDelivered) / float64(survivors*len(ids))
		out[MKSurvivorMinReachFrac] = float64(survMinReach) / float64(survivors)
	}
}

// RunScenario builds one cluster for the scenario and runs its workload to
// the horizon, returning the cell metrics exp aggregates. It is the
// ScenarioFunc the sweep subsystem runs; everything it does is a pure
// function of (sc, seed), which is what makes sweep aggregates reproducible
// at any parallelism. Scenario.Protocol picks the kernel: the RRMP engine
// (default) or the RMTP repair-server baseline (runTreeScenario).
func RunScenario(sc exp.Scenario, seed uint64) (map[string]float64, error) {
	return runScenario(sc, seed, nil)
}

// runScenario is the shared kernel dispatcher. timeline, when non-nil,
// overrides the scenario's generated publish timeline (the trace-replay
// path); nil means "materialize from the scenario" (TimelineFor).
func runScenario(sc exp.Scenario, seed uint64, timeline workload.Timeline) (map[string]float64, error) {
	switch sc.Protocol {
	case "", "rrmp":
		// The paper's protocol, below.
	case "rmtp":
		return runTreeScenario(sc, seed, timeline)
	default:
		return nil, fmt.Errorf("runner: unknown scenario protocol %q", sc.Protocol)
	}
	topo, err := scenarioTopology(sc)
	if err != nil {
		return nil, fmt.Errorf("runner: scenario topology: %w", err)
	}

	loss, err := scenarioLoss(sc, seed, topo.NumNodes())
	if err != nil {
		return nil, err
	}

	hold := sc.FixedHold
	if hold <= 0 {
		hold = 500 * time.Millisecond
	}
	spec, err := policyspec.Parse(sc.Policy)
	if err != nil {
		return nil, fmt.Errorf("runner: scenario: %w", err)
	}
	policyFn := PolicyFactory(spec, hold)

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
	// Crash and partition cells run the gossip failure detector so that
	// recovery routes around dead members — as do VoD late-join cells,
	// whose joiners are down for seconds; fault-free cells keep the
	// detector (and its traffic) off and stay comparable to old runs.
	params.FDEnabled = sc.Crash > 0 || sc.PartitionAt > 0 ||
		(sc.Workload != nil && sc.Workload.LateJoinFrac > 0)
	params.ByteBudget = sc.ByteBudget
	c, err := NewCluster(ClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   seed,
		Loss:   loss,
		Policy: policyFn,
		Shards: effectiveShards(sc),
	})
	if err != nil {
		return nil, fmt.Errorf("runner: scenario cluster: %w", err)
	}

	tl := timeline
	if tl == nil {
		if tl, _, err = TimelineFor(sc, seed); err != nil {
			return nil, err
		}
	}
	// One sender per publishing client, client 0 on the legacy sender
	// node: RRMP tracks reception per source (Member.sources), so
	// multi-sender publishes flow through the existing machinery — every
	// publisher announces its own TopSeq via sessions.
	pubs, err := publisherNodes(topo, tl.Clients())
	if err != nil {
		return nil, err
	}
	senders := make([]*rrmp.Sender, len(pubs))
	for i, node := range pubs {
		if node == topo.Sender() {
			senders[i] = c.Sender
		} else {
			senders[i] = rrmp.NewSender(c.Members[node])
		}
		senders[i].StartSessions()
	}

	// VoD late joiners crash (and drop off the network) at t=0, before any
	// publish, then recover at their staggered join times with the whole
	// prefix to catch up on.
	joiners := lateJoinersFor(topo, sc.Workload, pubs)
	for _, j := range joiners {
		j := j
		c.Engine.At(0, func() {
			c.Members[j.node].Crash()
			c.Net.SetDown(j.node, true)
		})
		c.Engine.At(j.at, func() {
			c.Net.SetDown(j.node, false)
			c.Members[j.node].Recover()
		})
	}

	ids := make([]wire.MessageID, 0, len(tl))
	// One backing buffer serves every publish — each message is the
	// prefix of its drawn size, so steady-state publishing allocates
	// nothing. Every member's buffer entry aliases this slice; the
	// engine never mutates payloads (pinned by a property test), and
	// Params.CopyOnStore exists for callers that must.
	payloadBuf := make([]byte, tl.MaxBytes())
	for i := range tl {
		ev := tl[i]
		c.Engine.At(ev.At, func() {
			ids = append(ids, senders[ev.Client].Publish(payloadBuf[:ev.Bytes]))
		})
	}

	// Churn (§3.2's handoff under load), crash faults (§3.3's search
	// recovery and the failure detector, with optional per-victim
	// recovery) and the partition timeline all come from the shared
	// scheduler, so the rmtp kernel injects the identical fault sequence.
	leaves, crashes := scheduleScenarioFaults(c.Engine, c.Net, topo, c.All, sc, seed, pubs, faultInjector{
		excused: func(v topology.NodeID) bool { return c.Members[v].Left() || c.Members[v].Crashed() },
		leave:   func(v topology.NodeID) { c.Members[v].Leave() },
		crash: func(v topology.NodeID) {
			c.Members[v].Crash()
			c.Net.SetDown(v, true)
		},
		recover: func(v topology.NodeID) {
			c.Net.SetDown(v, false)
			c.Members[v].Recover()
		},
	})

	c.Engine.RunUntil(sc.Horizon)

	n := topo.NumNodes()
	out := map[string]float64{
		MKLeaves:      float64(*leaves),
		MKPacketsSent: float64(c.Net.Stats().TotalSent()),
		MKBytesSent:   float64(c.Net.Stats().TotalBytes()),
		MKEvents:      float64(c.Engine.Processed()),
	}
	var delivered, duplicates, localReq, remoteReq, repairs, regional, handoffs int64
	var searches, searchFailures, suspects, unrecoverable int64
	var bufferIntegral, byteIntegral float64
	var peak, peakBytes, longTerm, survivors int
	var pressureEvictions, budgetDenials int
	var recSum, recN, bufSum, bufN, rerecSum, rerecN float64
	for _, m := range c.Members {
		mm := m.Metrics()
		delivered += mm.Delivered.Value()
		duplicates += mm.Duplicates.Value()
		localReq += mm.LocalReqSent.Value()
		remoteReq += mm.RemoteReqSent.Value()
		repairs += mm.RepairsSent.Value()
		regional += mm.RegionalMulticasts.Value()
		handoffs += mm.HandoffsSent.Value()
		searches += mm.SearchesStarted.Value()
		searchFailures += mm.SearchFailures.Value()
		suspects += mm.Suspects.Value()
		bufferIntegral += m.Buffer().OccupancyIntegral(c.Engine.Now())
		byteIntegral += m.Buffer().ByteOccupancyIntegral(c.Engine.Now())
		if p := m.Buffer().PeakLen(); p > peak {
			peak = p
		}
		if p := m.Buffer().PeakBytes(); p > peakBytes {
			peakBytes = p
		}
		pressureEvictions += m.Buffer().EvictedCount(core.EvictPressure)
		budgetDenials += m.Buffer().DeniedCount()
		longTerm += m.Buffer().LongTermCount()
		recSum += mm.RecoveryLatency.Mean() * float64(mm.RecoveryLatency.N())
		recN += float64(mm.RecoveryLatency.N())
		bufSum += mm.BufferingTime.Mean() * float64(mm.BufferingTime.N())
		bufN += float64(mm.BufferingTime.N())
		rerecSum += mm.ReRecoveryLatency.Mean() * float64(mm.ReRecoveryLatency.N())
		rerecN += float64(mm.ReRecoveryLatency.N())
		if !m.Crashed() && !m.Left() {
			survivors++
			unrecoverable += mm.Unrecoverable.Value()
		}
	}
	msgs := sc.Msgs
	if sc.Workload != nil {
		msgs = len(ids)
	}
	reachMetrics(out, msgs, n, survivors, delivered, ids,
		func(node topology.NodeID, id wire.MessageID) bool { return c.Members[node].HasReceived(id) },
		func(node topology.NodeID) bool { return !c.Members[node].Crashed() && !c.Members[node].Left() })
	out[MKDuplicates] = float64(duplicates)
	out[MKLocalRequests] = float64(localReq)
	out[MKRemoteRequests] = float64(remoteReq)
	out[MKRepairs] = float64(repairs)
	out[MKRegionalMulticasts] = float64(regional)
	out[MKHandoffs] = float64(handoffs)
	out[MKSearches] = float64(searches)
	out[MKSearchFailures] = float64(searchFailures)
	out[MKBufferIntegralMsgSec] = bufferIntegral
	out[MKPeakBuffered] = float64(peak)
	out[MKLongTermEntries] = float64(longTerm)
	// The byte-currency keys appear only in cells that engage the payload
	// or budget axes (or a size-drawing workload): pre-axis cells must
	// keep the exact key set the committed golden reports pin byte for
	// byte. (Their values are computed either way; for a 256-byte fixed
	// payload they are just the message metrics × 256.)
	if workloadBytesEngaged(sc) {
		out[MKBufferIntegralByteSec] = byteIntegral
		out[MKPeakBufferedBytes] = float64(peakBytes)
		out[MKPressureEvictions] = float64(pressureEvictions)
		out[MKBudgetDenials] = float64(budgetDenials)
	}
	workloadMetrics(out, sc, len(ids), joiners)
	out[MKCrashes] = float64(*crashes)
	out[MKSuspects] = float64(suspects)
	out[MKUnrecoverable] = float64(unrecoverable)
	out[MKPartitionDrops] = float64(c.Net.Stats().PartitionDrops())
	if recN > 0 {
		out[MKMeanRecoveryMs] = recSum / recN
	}
	if bufN > 0 {
		out[MKMeanBufferingMs] = bufSum / bufN
	}
	if rerecN > 0 {
		out[MKMeanReRecoveryMs] = rerecSum / rerecN
	}
	return out, nil
}

// RunSweep expands sw and runs every (cell, trial) pair through the exp
// worker pool with RunScenario as the kernel.
func RunSweep(o exp.Options, sw exp.Sweep) (exp.Report, error) {
	return RunSweeps(o, sw)
}

// execNotes summarizes the cells that cannot honor a requested -shards
// width (see effectiveShards): instead of failing or silently lying about
// the execution, the report carries a top-level note. The note is
// execution metadata — it never appears at the default width, so the
// committed default-shards reports keep their bytes.
func execNotes(sweeps []exp.Sweep) string {
	shards, legacy, rmtp, total := 0, 0, 0, 0
	for _, sw := range sweeps {
		if sw.Shards > shards {
			shards = sw.Shards
		}
		cells := sw.Expand()
		total += len(cells)
		if sw.Shards <= 1 {
			continue
		}
		for _, sc := range cells {
			switch {
			case sc.Protocol == "rmtp":
				rmtp++
			case effectiveShards(sc) == 1:
				legacy++
			}
		}
	}
	if shards <= 1 || (legacy == 0 && rmtp == 0) {
		return ""
	}
	note := fmt.Sprintf("shards=%d requested; %d of %d cells ran serial (", shards, legacy+rmtp, total)
	sep := ""
	if legacy > 0 {
		note += fmt.Sprintf("%d legacy-stream loss — use LossMode \"hash\" for shard-safe loss", legacy)
		sep = "; "
	}
	if rmtp > 0 {
		note += fmt.Sprintf("%s%d rmtp — the serial baseline never shards", sep, rmtp)
	}
	return note + "); aggregates are byte-identical either way"
}
