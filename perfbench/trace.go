package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/rrmp"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Span parents: a per-call span either runs inside a protocol handler
// (parent rrmp) or directly under the event loop (parent sim: timers,
// sessions and the publish events scheduled by runXLTrial).
const (
	parentSim = iota
	parentRRMP
	numParents
)

// callStat is one (module, parent) pair's call count and total time.
type callStat struct {
	calls int64
	ns    int64
}

func (c *callStat) add(start time.Time) {
	c.calls++
	c.ns += int64(time.Since(start))
}

// laneAcc accumulates every wrapper span of one engine lane. At width 2
// the two lanes run on their own goroutines, so each wrapper writes only
// the accumulator of the lane that owns the node it acts for; the engine's
// barriers order those writes before the trial code reads them.
type laneAcc struct {
	handler   callStat
	inHandler bool
	policy    [numParents]callStat
	loss      [numParents]callStat
	latency   [numParents]callStat
	// crossShard counts packets whose endpoints sit on different lanes.
	crossShard int64
	// stores and promotions are counted at the policy boundary.
	stores     int64
	promotions int64
	_          [64]byte // keep lanes on separate cache lines
}

func (a *laneAcc) parent() int {
	if a.inHandler {
		return parentRRMP
	}
	return parentSim
}

// tracer owns one traced trial's per-lane accumulators.
type tracer struct {
	lanes   []laneAcc
	shardOf []int32
}

func newTracer(shardOf []int32, lanes int) *tracer {
	return &tracer{lanes: make([]laneAcc, lanes), shardOf: shardOf}
}

func (t *tracer) lane(n topology.NodeID) *laneAcc { return &t.lanes[t.shardOf[n]] }

// timedReceiver wraps a member's packet handler.
type timedReceiver struct {
	m   *rrmp.Member
	acc *laneAcc
}

func (r *timedReceiver) ReceivePacket(p netsim.Packet) {
	r.acc.inHandler = true
	start := time.Now()
	r.m.ReceivePacket(p)
	r.acc.handler.add(start)
	r.acc.inHandler = false
}

// timedLoss wraps the network loss model; sends run on the sender's lane.
type timedLoss struct {
	inner netsim.LossModel
	t     *tracer
}

func (l timedLoss) Drop(from, to topology.NodeID, ty wire.Type) bool {
	a := l.t.lane(from)
	start := time.Now()
	drop := l.inner.Drop(from, to, ty)
	a.loss[a.parent()].add(start)
	return drop
}

// timedLatency wraps the network latency model and counts cross-lane
// packets (latency is drawn only for packets that survive loss).
type timedLatency struct {
	inner netsim.LatencyModel
	t     *tracer
}

func (l timedLatency) OneWay(from, to topology.NodeID) time.Duration {
	a := l.t.lane(from)
	start := time.Now()
	d := l.inner.OneWay(from, to)
	a.latency[a.parent()].add(start)
	if l.t.shardOf[from] != l.t.shardOf[to] {
		a.crossShard++
	}
	return d
}

// timedPolicy wraps a member's buffering policy. rrmp.NewMember
// type-asserts two optional interfaces on the policy it is given, so
// wrapPolicy returns a variant that forwards exactly the ones the inner
// policy implements.
type timedPolicy struct {
	inner core.Policy
	acc   *laneAcc
}

type bufferersLocator interface {
	Bufferers(id wire.MessageID) []topology.NodeID
}

type timedLocatorPolicy struct {
	*timedPolicy
	loc bufferersLocator
}

func (p timedLocatorPolicy) Bufferers(id wire.MessageID) []topology.NodeID {
	return p.loc.Bufferers(id)
}

type timedBinderPolicy struct {
	*timedPolicy
	binder core.RngBinder
}

func (p timedBinderPolicy) BindRng(r *rng.Source) { p.binder.BindRng(r) }

type timedLocatorBinderPolicy struct {
	*timedPolicy
	loc    bufferersLocator
	binder core.RngBinder
}

func (p timedLocatorBinderPolicy) Bufferers(id wire.MessageID) []topology.NodeID {
	return p.loc.Bufferers(id)
}

func (p timedLocatorBinderPolicy) BindRng(r *rng.Source) { p.binder.BindRng(r) }

func wrapPolicy(inner core.Policy, acc *laneAcc) core.Policy {
	tp := &timedPolicy{inner: inner, acc: acc}
	loc, isLoc := inner.(bufferersLocator)
	binder, isBinder := inner.(core.RngBinder)
	switch {
	case isLoc && isBinder:
		return timedLocatorBinderPolicy{tp, loc, binder}
	case isLoc:
		return timedLocatorPolicy{tp, loc}
	case isBinder:
		return timedBinderPolicy{tp, binder}
	}
	return tp
}

func (p *timedPolicy) span() *callStat { return &p.acc.policy[p.acc.parent()] }

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Hold(id wire.MessageID) (time.Duration, bool) {
	start := time.Now()
	d, reset := p.inner.Hold(id)
	p.span().add(start)
	return d, reset
}

func (p *timedPolicy) OnIdle(id wire.MessageID, r *rng.Source) core.Decision {
	start := time.Now()
	d := p.inner.OnIdle(id, r)
	p.span().add(start)
	if d == core.PromoteLongTerm {
		p.acc.promotions++
	}
	return d
}

func (p *timedPolicy) LongTermTTL() time.Duration {
	start := time.Now()
	d := p.inner.LongTermTTL()
	p.span().add(start)
	return d
}

func (p *timedPolicy) ObserveStore(id wire.MessageID, at time.Duration) {
	start := time.Now()
	p.inner.ObserveStore(id, at)
	p.span().add(start)
	p.acc.stores++
}

func (p *timedPolicy) ObserveRequest(id wire.MessageID, at time.Duration) {
	start := time.Now()
	p.inner.ObserveRequest(id, at)
	p.span().add(start)
}

func (p *timedPolicy) ObserveEvict(id wire.MessageID, reason core.EvictReason) {
	start := time.Now()
	p.inner.ObserveEvict(id, reason)
	p.span().add(start)
}

func (p *timedPolicy) DisplacedBefore(a, c *core.Entry) bool {
	start := time.Now()
	before := p.inner.DisplacedBefore(a, c)
	p.span().add(start)
	return before
}

// totals folds the lanes into one accumulator (read only after the run).
func (t *tracer) totals() laneAcc {
	var sum laneAcc
	for i := range t.lanes {
		a := &t.lanes[i]
		addStat(&sum.handler, a.handler)
		for p := 0; p < numParents; p++ {
			addStat(&sum.policy[p], a.policy[p])
			addStat(&sum.loss[p], a.loss[p])
			addStat(&sum.latency[p], a.latency[p])
		}
		sum.crossShard += a.crossShard
		sum.stores += a.stores
		sum.promotions += a.promotions
	}
	return sum
}

func addStat(dst *callStat, s callStat) {
	dst.calls += s.calls
	dst.ns += s.ns
}

// busyNs is the lane's time inside top-level wrapper spans: handlers plus
// the policy and network calls made directly from the event loop.
func (a *laneAcc) busyNs() int64 {
	return a.handler.ns + a.policy[parentSim].ns + a.loss[parentSim].ns + a.latency[parentSim].ns
}
