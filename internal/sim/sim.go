// Package sim implements the deterministic discrete-event simulation
// engine every experiment runs on.
//
// A Sim owns a virtual clock and ordered event queues (internal/eventq).
// All protocol work — packet deliveries, retransmission timers, idle-buffer
// timers — is expressed as events. Running the simulation pops events in
// (time, insertion) order and advances the clock to each event's
// timestamp, so every run is exactly reproducible from its inputs.
//
// One engine type runs at any width. New returns width 1: every event —
// driver event, member timer, packet delivery — lives on one global queue
// that RunUntil pops in plain (time, insertion) order on the caller's
// goroutine, with no windows, goroutines, outboxes or locks.
//
// NewSharded returns an engine of n lanes: one trial runs n event loops,
// each owning the members of one or more regions, synchronized by
// conservative-lookahead windows. The synchronization protocol is classic
// conservative PDES specialized to this simulator's structure:
//
//   - Every cross-lane interaction is a packet delivery with latency of at
//     least the lookahead bound W (the minimum cross-region one-way
//     latency). A lane executing events in the window [G, G+W) can
//     therefore only schedule cross-lane work at or after G+W — never
//     inside another lane's current window.
//   - Lanes execute a window concurrently, queueing cross-lane pushes in
//     per-lane outboxes. At the barrier the coordinator drains outboxes in
//     fixed lane order into the target queues, so the merge order is a
//     pure function of the event timeline, not goroutine scheduling.
//   - Driver-level events (fault injections, publishes, anything scheduled
//     through the engine's own Scheduler or before the first RunUntil) live
//     on the global queue, executed single-threaded at barriers in exactly
//     the (time, insertion) order width 1 gives them. A fault cut landing
//     on a barrier boundary thus executes between windows, never
//     "batch-ahead" of the lane loops it affects.
//
// Determinism at width ≥ 2: each lane queue orders events by the extended
// key (at, pushAt, src, seq) — see eventq.PushKeyed. Within one pushing
// context (a lane's loop, or the coordinator) pushAt is nondecreasing and
// seq is the push order, so per-context insertion order is preserved;
// across contexts the key orders by push time first (as width 1's global
// sequence does) and falls back to the fixed context index only for pushes
// from different contexts at identical virtual times. That fallback is the
// one place the merge can deviate from width 1 (which breaks such ties by
// push order instead) — the order is still a pure function of the event
// timeline, just a different deterministic convention, and any downstream
// push inherits it. FuzzShardMerge pins exactly this contract; the runner
// differential suite demonstrates the convention never changes
// protocol-level report bytes.
//
// Sim implements clock.Scheduler, which is the only interface the protocol
// stack sees.
package sim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/eventq"
)

// Sim is the discrete-event engine. It implements clock.Scheduler
// (driver-level scheduling lands on the global queue); the schedulers
// protocol members run against come from Clock. Create one with New
// (width 1) or NewSharded.
//
// Concurrency contract: width 1 runs everything on the caller's
// goroutine. At width ≥ 2 the engine's own methods belong to the driving
// goroutine — the driver between runs, or a global event at a barrier —
// except that during a window each lane's goroutine may touch its own
// lane (through its Clock, or PostFrom with a same/cross-lane target) and
// Stop timers it armed; cross-lane effects are deferred to the barrier.
type Sim struct {
	// lanes are the shard event loops; nil at width 1, where every event
	// lives on global.
	lanes     []*lane
	clocks    []laneClock
	nodeShard []int32
	lookahead time.Duration

	// global holds every event at width 1; at width ≥ 2 it is the
	// driver/coordinator queue. Either way it pops in plain (at, seq)
	// order. gcount counts executed global events. gmu is only taken at
	// width ≥ 2, where lanes may Stop global timers concurrently
	// mid-window; every other global access is coordinator-side.
	gmu    sync.Mutex
	global eventq.Queue
	gcount uint64

	now time.Duration
	// globalOnly routes every push to the global queue: always at width 1,
	// and at width ≥ 2 until the first RunUntil.
	globalOnly bool
	barrier    bool // coordinator is executing between windows
	running    bool

	// stop and limit bound the current run: it panics rather than let
	// Processed exceed stop (MustQuiesce's runaway guard; limit is the
	// caller's event budget, kept for the message).
	stop, limit uint64

	active []*lane // scratch for runWindow
}

// lane is one shard's event loop: a keyed queue, the lane's local clock,
// and an outbox of cross-lane pushes deferred to the next barrier.
type lane struct {
	q         eventq.Queue
	now       time.Duration
	out       []outEvent
	processed uint64
}

// outEvent is a cross-lane push captured during a window.
type outEvent struct {
	dst    int32
	at     time.Duration
	pushAt time.Duration
	src    int32
	fn     func()
}

// coordinatorSrc orders barrier-context pushes before any lane's pushes at
// an identical (at, pushAt) — width 1 runs driver-scheduled events first at
// equal timestamps because their sequence numbers predate all runtime
// pushes.
const coordinatorSrc int32 = -1

// New returns an empty width-1 engine at virtual time zero.
func New() *Sim {
	return &Sim{globalOnly: true}
}

// NewSharded returns an engine with shards lanes. nodeShard maps every
// node id to its owning lane (see topology.NodeShards); lookahead is the
// conservative window bound and must not exceed the minimum cross-lane
// packet latency the caller's latency model can produce. One shard is
// width 1, exactly New.
func NewSharded(shards int, nodeShard []int32, lookahead time.Duration) (*Sim, error) {
	if shards < 1 {
		return nil, fmt.Errorf("sim: NewSharded with %d shards", shards)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: NewSharded with non-positive lookahead %v", lookahead)
	}
	for n, s := range nodeShard {
		if s < 0 || int(s) >= shards {
			return nil, fmt.Errorf("sim: node %d mapped to shard %d of %d", n, s, shards)
		}
	}
	e := New()
	if shards == 1 {
		return e, nil
	}
	e.lanes = make([]*lane, shards)
	e.clocks = make([]laneClock, shards)
	e.nodeShard = nodeShard
	e.lookahead = lookahead
	for i := range e.lanes {
		e.lanes[i] = &lane{}
		e.clocks[i] = laneClock{e: e, shard: int32(i)}
	}
	return e, nil
}

// Shards returns the number of lanes (1 for a width-1 engine).
func (e *Sim) Shards() int { return max(1, len(e.lanes)) }

// NodeShards returns the node-to-lane map, or nil at width 1 (every node
// on lane 0).
func (e *Sim) NodeShards() []int32 { return e.nodeShard }

// Clock returns the scheduler protocol code owned by node must use. At
// width 1 that is the engine itself; at width ≥ 2, Now is the owning lane's
// local window clock and timers land on that lane's own queue.
func (e *Sim) Clock(node int32) clock.Scheduler {
	if e.lanes == nil {
		return e
	}
	return &e.clocks[e.nodeShard[node]]
}

// Now returns the engine's barrier clock (the driver-visible virtual time;
// at width 1, the current event's time).
func (e *Sim) Now() time.Duration { return e.now }

// Processed returns the number of events executed across all queues.
func (e *Sim) Processed() uint64 {
	total := e.gcount
	for _, ln := range e.lanes {
		total += ln.processed
	}
	return total
}

// Pending returns the number of scheduled events not yet executed.
func (e *Sim) Pending() int {
	n := e.global.Len()
	for _, ln := range e.lanes {
		n += ln.q.Len()
	}
	return n
}

var _ clock.Scheduler = (*Sim)(nil)

// After schedules fn on the global queue d after the barrier clock. A
// non-positive d schedules for "now"; the event still goes through the
// queue so it runs after the currently executing event completes.
func (e *Sim) After(d time.Duration, fn func()) clock.Timer {
	if fn == nil {
		panic("sim: After with nil callback")
	}
	if d < 0 {
		d = 0
	}
	return &gtimer{e: e, h: e.global.Push(e.now+d, fn)}
}

// At schedules fn on the global queue at the absolute time at, clamped to
// the barrier clock.
func (e *Sim) At(at time.Duration, fn func()) clock.Timer {
	return e.After(at-e.now, fn)
}

// PostFrom schedules fn to run d after the sending context's clock, on the
// lane owning node to, without a cancellation handle. from identifies the
// sending node; the sending context is from's lane during a window, or the
// coordinator during setup and barriers. This is the network's delivery
// primitive: packet deliveries are never cancelled, and they dominate
// event volume at scale. At width 1 it is a plain push onto the global
// queue. Cross-lane posts with d below the lookahead bound panic: they
// would land inside another lane's current window, which the engine cannot
// order deterministically.
func (e *Sim) PostFrom(from, to int32, d time.Duration, fn func()) {
	if fn == nil {
		panic("sim: PostFrom with nil callback")
	}
	if d < 0 {
		d = 0
	}
	if e.globalOnly {
		e.global.Push(e.now+d, fn)
		return
	}
	dst := e.nodeShard[to]
	if e.barrier {
		e.lanes[dst].q.PushKeyed(e.now+d, e.now, coordinatorSrc, fn)
		return
	}
	src := e.nodeShard[from]
	ln := e.lanes[src]
	if src == dst {
		ln.q.PushKeyed(ln.now+d, ln.now, src, fn)
		return
	}
	if d < e.lookahead {
		panic(fmt.Sprintf("sim: cross-shard post from node %d to node %d with delay %v below the %v lookahead bound", from, to, d, e.lookahead))
	}
	ln.out = append(ln.out, outEvent{dst: dst, at: ln.now + d, pushAt: ln.now, src: src, fn: fn})
}

// Run executes events until every queue is empty and returns the number
// executed. It panics if called reentrantly from an event callback.
func (e *Sim) Run() uint64 { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= deadline, advances the clock
// to the deadline, and returns the number of events executed by this call.
// A negative deadline runs to exhaustion.
func (e *Sim) RunUntil(deadline time.Duration) uint64 {
	return e.run(deadline, math.MaxUint64)
}

// RunFor advances the simulation by d from the current time; see RunUntil.
func (e *Sim) RunFor(d time.Duration) uint64 { return e.RunUntil(e.now + d) }

// MustQuiesce runs to exhaustion but panics if the run needs more than
// limit events, which guards tests and experiments against runaway
// protocols (for example a search loop that never terminates).
func (e *Sim) MustQuiesce(limit uint64) uint64 { return e.run(-1, limit) }

// run is the Run family's body: execute up to deadline (negative = to
// exhaustion) and panic, on the driving goroutine, once the run needs
// more than limit events. Width 1 panics before the extra event runs; at
// width ≥ 2 a lane stops one event past the budget and the coordinator
// panics after that window.
func (e *Sim) run(deadline time.Duration, limit uint64) uint64 {
	if e.running {
		panic("sim: reentrant Run from inside an event callback")
	}
	e.running = true
	defer func() { e.running = false }()

	start := e.Processed()
	e.limit, e.stop = limit, start+limit
	if e.stop < start {
		e.stop = math.MaxUint64
	}
	if e.lanes == nil {
		e.runSerial(deadline)
		return e.gcount - start
	}
	e.globalOnly = false
	if deadline >= 0 {
		e.runTo(deadline)
	} else {
		for at, ok := e.nextEventAt(); ok; at, ok = e.nextEventAt() {
			e.runTo(at)
		}
	}
	return e.Processed() - start
}

// overrun reports a run that hit its event limit.
func (e *Sim) overrun() {
	panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v with %d pending", e.limit, e.now, e.Pending()))
}

// runSerial is width 1's loop: pop the global queue in (at, seq) order,
// advancing the clock to each event.
func (e *Sim) runSerial(deadline time.Duration) {
	for {
		at, ok := e.global.PeekAt()
		if !ok || (deadline >= 0 && at > deadline) {
			break
		}
		if e.gcount >= e.stop {
			e.overrun()
		}
		at, fn, _ := e.global.PopFire()
		if at > e.now {
			e.now = at
		}
		e.gcount++
		fn()
	}
	if deadline >= 0 && e.now < deadline {
		e.now = deadline
	}
}

// runTo advances a width ≥ 2 engine to the absolute time deadline (>= 0).
func (e *Sim) runTo(deadline time.Duration) {
	for {
		e.syncLanes()
		e.runGlobalDue()
		if e.now >= deadline {
			// Final pass: events at exactly the deadline instant. Globals
			// at the deadline already fired above (driver-scheduled events
			// precede runtime events at equal timestamps, as at width 1);
			// now the lane loops run theirs inclusively.
			e.runWindow(deadline, true)
			e.drainOutboxes()
			return
		}
		h := e.now + e.lookahead
		if at, ok := e.global.PeekAt(); ok && at < h {
			h = at
		}
		if deadline < h {
			h = deadline
		}
		e.runWindow(h, false)
		e.drainOutboxes()
		e.now = h
	}
}

// syncLanes aligns every lane clock with the barrier clock.
func (e *Sim) syncLanes() {
	for _, ln := range e.lanes {
		ln.now = e.now
	}
}

// runGlobalDue executes global events due at the barrier clock, in
// (time, insertion) order, on the coordinator.
func (e *Sim) runGlobalDue() {
	e.barrier = true
	for {
		if at, ok := e.global.PeekAt(); !ok || at > e.now {
			break
		}
		if e.Processed() >= e.stop {
			e.overrun()
		}
		_, fn, _ := e.global.PopFire()
		e.gcount++
		fn()
	}
	e.barrier = false
}

// nextEventAt returns the earliest pending event time across all queues.
func (e *Sim) nextEventAt() (time.Duration, bool) {
	at, ok := e.global.PeekAt()
	for _, ln := range e.lanes {
		if head, lok := ln.q.PeekAt(); lok && (!ok || head < at) {
			at, ok = head, true
		}
	}
	return at, ok
}

// runWindow executes every lane's events in [now, limit) — or [now, limit]
// when inclusive — concurrently, one goroutine per lane with due events.
// Each lane runs at most one event past the run's remaining budget, so a
// runaway lane stops and the overrun surfaces here, on the coordinator.
func (e *Sim) runWindow(limit time.Duration, inclusive bool) {
	e.active = e.active[:0]
	for _, ln := range e.lanes {
		if at, ok := ln.q.PeekAt(); ok && due(at, limit, inclusive) {
			e.active = append(e.active, ln)
		}
	}
	if len(e.active) == 0 {
		return
	}
	quota := e.stop - e.Processed()
	if len(e.active) == 1 {
		e.active[0].run(limit, inclusive, quota)
	} else {
		var wg sync.WaitGroup
		wg.Add(len(e.active))
		for _, ln := range e.active {
			go func(ln *lane) {
				defer wg.Done()
				ln.run(limit, inclusive, quota)
			}(ln)
		}
		wg.Wait()
	}
	if e.Processed() > e.stop {
		e.overrun()
	}
}

func due(at, limit time.Duration, inclusive bool) bool {
	if inclusive {
		return at <= limit
	}
	return at < limit
}

// run executes up to quota+1 of the lane's due events in extended-key
// order, advancing the lane clock to each event's timestamp.
func (ln *lane) run(limit time.Duration, inclusive bool, quota uint64) {
	for n := uint64(0); n <= quota; n++ {
		if at, ok := ln.q.PeekAt(); !ok || !due(at, limit, inclusive) {
			return
		}
		at, fn, _ := ln.q.PopFire()
		if at > ln.now {
			ln.now = at
		}
		ln.processed++
		fn()
	}
}

// drainOutboxes merges the window's cross-lane pushes into their target
// queues in fixed lane order, keeping the merge deterministic.
func (e *Sim) drainOutboxes() {
	for _, ln := range e.lanes {
		for i := range ln.out {
			o := &ln.out[i]
			e.lanes[o.dst].q.PushKeyed(o.at, o.pushAt, o.src, o.fn)
			o.fn = nil
		}
		ln.out = ln.out[:0]
	}
}

// laneClock is the clock.Scheduler one lane's members run against at
// width ≥ 2.
type laneClock struct {
	e     *Sim
	shard int32
}

// Now returns the lane's local clock (the barrier clock between windows).
func (c *laneClock) Now() time.Duration { return c.e.lanes[c.shard].now }

// After schedules fn on the owning lane's queue. During setup it routes to
// the global queue (matching width 1's pre-run insertion order); from a
// barrier it is keyed as a coordinator push.
func (c *laneClock) After(d time.Duration, fn func()) clock.Timer {
	e := c.e
	if e.globalOnly {
		return e.After(d, fn)
	}
	if fn == nil {
		panic("sim: After with nil callback")
	}
	if d < 0 {
		d = 0
	}
	ln := e.lanes[c.shard]
	src := c.shard
	if e.barrier {
		src = coordinatorSrc
	}
	return &ltimer{ln: ln, h: ln.q.PushKeyed(ln.now+d, ln.now, src, fn)}
}

var _ clock.Scheduler = (*laneClock)(nil)

// gtimer is a handle to a global-queue event. Queue slots are reused, so
// a Stop after the event fired (and its slot went to a later event) holds
// a stale handle, which Cancel refuses.
type gtimer struct {
	e *Sim
	h eventq.Handle
}

// Stop cancels the timer; see clock.Timer.
func (t *gtimer) Stop() bool {
	if t.e.lanes != nil {
		// Members on concurrent lanes may stop timers they armed during
		// setup, which live on the global queue.
		t.e.gmu.Lock()
		defer t.e.gmu.Unlock()
	}
	return t.e.global.Cancel(t.h)
}

// ltimer is a handle to a lane event. Stop is only safe from the owning
// lane's context (or a barrier) — the same ownership rule as every other
// lane operation. Protocol members only cancel their own timers, so this
// holds by construction.
type ltimer struct {
	ln *lane
	h  eventq.Handle
}

// Stop cancels the timer; see clock.Timer.
func (t *ltimer) Stop() bool { return t.ln.q.Cancel(t.h) }

var _ clock.Timer = (*gtimer)(nil)
var _ clock.Timer = (*ltimer)(nil)
