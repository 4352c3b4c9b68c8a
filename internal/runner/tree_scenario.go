// This file emits RMTP sweep cells; the metrickey analyzer checks that
// only keys gated to rmtp (or both) appear here — the PR 5 "RRMP-only
// keys never leak into rmtp cells" invariant, statically.
//
//metrics:scope rmtp
package runner

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/rmtp"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// runTreeScenario is RunScenario's kernel for Scenario.Protocol == "rmtp":
// the same topology, loss stream, publish workload, churn, crash,
// partition and byte-budget machinery, driven through an RMTP tree
// cluster (one repair server per region, parented along the region
// hierarchy). It emits the shared metric names (delivery, reach, buffer
// integrals in message- and byte-seconds, traffic, faults) plus the
// RMTP-specific nak_*/ack_* counters; RRMP-only keys (searches, handoffs,
// long_term_entries, ...) never appear in rmtp cells and vice versa, so
// the legacy key sets stay untouched.
// timeline, when non-nil, overrides the generated publish timeline (the
// trace-replay path). RMTP is a single-source protocol (nodes track
// reception by bare sequence number from one source), so multi-client
// timelines publish entirely from the root sender at the same instants
// with the same sizes — the common-random-numbers pairing across the
// protocol axis holds on (at, bytes), which is all RMTP can express.
func runTreeScenario(sc exp.Scenario, seed uint64, timeline workload.Timeline) (map[string]float64, error) {
	switch sc.Policy {
	case "", "server":
		// The baseline has exactly one buffering discipline: the repair
		// server buffers all under ACK trimming (exp.Sweep collapses the
		// policy axis to "server" for rmtp cells).
	default:
		return nil, fmt.Errorf("runner: rmtp scenario policy %q (the repair-server baseline has no policy axis; use %q)", sc.Policy, "server")
	}
	topo, err := ScenarioTopology(sc)
	if err != nil {
		return nil, fmt.Errorf("runner: scenario topology: %w", err)
	}

	params := rmtp.DefaultParams()
	params.ByteBudget = sc.ByteBudget
	// The rmtp baseline always runs at width 1 (Scenario.Shards is
	// ignored here): it exists as a reference kernel, not a scale target,
	// and its shared-stream loss draws are not shard-safe anyway.
	loss, err := ScenarioLoss(sc, seed, topo.NumNodes())
	if err != nil {
		return nil, err
	}
	c, err := NewTreeCluster(TreeClusterConfig{
		Topo:   topo,
		Params: params,
		Seed:   seed,
		Loss:   loss,
	})
	if err != nil {
		return nil, fmt.Errorf("runner: scenario tree cluster: %w", err)
	}
	for _, node := range c.Nodes {
		node.StartAcks()
	}
	c.Sender.StartSessions()

	tl := timeline
	if tl == nil {
		if tl, _, err = TimelineFor(sc, seed); err != nil {
			return nil, err
		}
	}
	// The publisher set matches the RRMP kernel's (even though every
	// publish flows from the root here) so the fault scheduler shields
	// the identical node set under both protocols.
	pubs, err := publisherNodes(topo, tl.Clients())
	if err != nil {
		return nil, err
	}

	// VoD late joiners: down from t=0, rejoining staggered with the whole
	// prefix to recover. Their frozen ACK floors pin the server buffers
	// until they return — the baseline's way of "planning" for late
	// joiners is to never trim.
	joiners := lateJoinersFor(topo, sc.Workload, pubs)
	for _, j := range joiners {
		j := j
		c.Engine.At(0, func() { c.Crash(j.node) })
		c.Engine.At(j.at, func() { c.Recover(j.node) })
	}

	ids := make([]wire.MessageID, 0, len(tl))
	// One backing buffer serves every publish, as in the RRMP kernel.
	payloadBuf := make([]byte, tl.MaxBytes())
	for i := range tl {
		ev := tl[i]
		c.Engine.At(ev.At, func() {
			ids = append(ids, c.Sender.Publish(payloadBuf[:ev.Bytes]))
		})
	}

	// The fault timeline comes from the shared scheduler, so a seeded
	// cell injects the identical churn/crash/partition sequence under
	// both protocols (the victims differ only in what failing *means*:
	// no handoff protocol, frozen ACK floors, orphaned regions).
	leaves, crashes := scheduleScenarioFaults(c.Engine, c.Net, topo, c.All, sc, seed, pubs, faultInjector{
		excused: func(v topology.NodeID) bool { return c.Nodes[v].Left() || c.Nodes[v].Crashed() },
		leave:   c.Leave,
		crash:   c.Crash,
		recover: c.Recover,
	})

	c.Engine.RunUntil(sc.Horizon)

	n := topo.NumNodes()
	out := map[string]float64{
		MKLeaves:      float64(*leaves),
		MKPacketsSent: float64(c.Net.Stats().TotalSent()),
		MKBytesSent:   float64(c.Net.Stats().TotalBytes()),
		MKEvents:      float64(c.Engine.Processed()),
	}
	var delivered, duplicates, repairs int64
	var nakSent, nakRecv, ackSent, ackRecv, giveUps, unrecoverable int64
	var bufferIntegral, byteIntegral float64
	var peak, peakBytes, ackTrims, survivors int
	var pressureEvictions, budgetDenials int
	var recSum, recN, bufSum, bufN float64
	for _, node := range c.Nodes {
		mm := node.Metrics()
		delivered += mm.Delivered.Value()
		duplicates += mm.Duplicates.Value()
		repairs += mm.RepairsSent.Value()
		nakSent += mm.NaksSent.Value()
		nakRecv += mm.NaksRecv.Value()
		ackSent += mm.AcksSent.Value()
		ackRecv += mm.AcksRecv.Value()
		giveUps += mm.GiveUps.Value()
		if b := node.Buffer(); b != nil {
			bufferIntegral += b.OccupancyIntegral(c.Engine.Now())
			byteIntegral += b.ByteOccupancyIntegral(c.Engine.Now())
			if p := b.PeakLen(); p > peak {
				peak = p
			}
			if p := b.PeakBytes(); p > peakBytes {
				peakBytes = p
			}
			ackTrims += b.EvictedCount(core.EvictStable)
			pressureEvictions += b.EvictedCount(core.EvictPressure)
			budgetDenials += b.DeniedCount()
		}
		recSum += mm.RecoveryLatency.Mean() * float64(mm.RecoveryLatency.N())
		recN += float64(mm.RecoveryLatency.N())
		bufSum += mm.BufferingTime.Mean() * float64(mm.BufferingTime.N())
		bufN += float64(mm.BufferingTime.N())
		if !node.Crashed() && !node.Left() {
			survivors++
			unrecoverable += mm.Unrecoverable.Value()
		}
	}
	msgs := sc.Msgs
	if sc.Workload != nil {
		msgs = len(ids)
	}
	reachMetrics(out, msgs, n, survivors, delivered, ids,
		func(node topology.NodeID, id wire.MessageID) bool { return c.Nodes[node].HasReceived(id.Seq) },
		func(node topology.NodeID) bool { return !c.Nodes[node].Crashed() && !c.Nodes[node].Left() })
	out[MKDuplicates] = float64(duplicates)
	out[MKRepairs] = float64(repairs)
	out[MKNakSent] = float64(nakSent)
	out[MKNakRecv] = float64(nakRecv)
	out[MKAckSent] = float64(ackSent)
	out[MKAckRecv] = float64(ackRecv)
	out[MKAckTrim] = float64(ackTrims)
	out[MKNakGiveups] = float64(giveUps)
	out[MKBufferIntegralMsgSec] = bufferIntegral
	out[MKPeakBuffered] = float64(peak)
	// Byte-currency keys follow the RRMP rule: only cells that engage the
	// payload or budget axes (or a size-drawing workload) carry them.
	if workloadBytesEngaged(sc) {
		out[MKBufferIntegralByteSec] = byteIntegral
		out[MKPeakBufferedBytes] = float64(peakBytes)
		out[MKPressureEvictions] = float64(pressureEvictions)
		out[MKBudgetDenials] = float64(budgetDenials)
	}
	workloadMetrics(out, sc, len(ids), joiners)
	out[MKCrashes] = float64(*crashes)
	out[MKUnrecoverable] = float64(unrecoverable)
	out[MKPartitionDrops] = float64(c.Net.Stats().PartitionDrops())
	if recN > 0 {
		out[MKMeanRecoveryMs] = recSum / recN
	}
	if bufN > 0 {
		out[MKMeanBufferingMs] = bufSum / bufN
	}
	return out, nil
}
