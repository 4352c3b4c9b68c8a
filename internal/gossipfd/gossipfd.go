// Package gossipfd implements the gossip-style failure detection service of
// van Renesse, Minsky and Hayden that RRMP's companion work builds on
// (paper reference [13]).
//
// Each member maintains a heartbeat counter per known peer. Periodically it
// increments its own counter and sends its whole table to one uniformly
// random peer, which merges by taking element-wise maxima. A peer whose
// counter has not increased for FailTimeout is suspected; after
// CleanupTimeout it is dropped from the table so that counters of departed
// members do not linger forever.
//
// The detector is region-scoped, matching RRMP's partial-membership model:
// a member gossips only within its region view. Stability detection and the
// churn experiments use it to exclude dead members from membership-derived
// decisions.
package gossipfd

import (
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Send transmits a heartbeat PDU to a peer; bind it to the network.
type Send func(to topology.NodeID, msg wire.Message)

// Config assembles a detector.
type Config struct {
	// View is the member's region view; the detector tracks all
	// RegionMembers (Self included).
	View topology.View
	// Sched supplies time and timers; required.
	Sched clock.Scheduler
	// Rng picks gossip targets; required.
	Rng *rng.Source
	// Send transmits heartbeats; required.
	Send Send
	// GossipInterval is the heartbeat/gossip period (default 50 ms).
	GossipInterval time.Duration
	// FailTimeout marks a peer suspected after this much silence
	// (default 8 × GossipInterval).
	FailTimeout time.Duration
	// CleanupTimeout drops a suspected peer's state entirely
	// (default 2 × FailTimeout).
	CleanupTimeout time.Duration
	// OnSuspect and OnRestore observe suspicion transitions.
	OnSuspect func(n topology.NodeID)
	// OnRestore fires when a suspected peer's counter advances again.
	OnRestore func(n topology.NodeID)
}

// entry is one region member's state, aligned with Detector.order.
type entry struct {
	counter   uint64
	updatedAt time.Duration
	suspected bool
	// known is false once a silent peer's state was cleaned up; tombstone
	// then remembers its last counter. Gossip tables keep circulating a
	// dead peer's final counter, so re-admission requires a strictly
	// higher value, i.e. a genuinely fresh heartbeat.
	known     bool
	tombstone uint64
}

// Detector is a region-scoped gossip failure detector. Not safe for
// concurrent use.
type Detector struct {
	cfg Config
	// order is the canonical table order (sorted region members) and
	// entries the per-member state in that order, so every walk over the
	// table — sweep, merge, target choice — runs in node order.
	order   []topology.NodeID
	entries []entry
	self    int
	// candidates is randomLivePeer's scratch.
	candidates []topology.NodeID
	ticker     clock.Timer
	running    bool
}

// New constructs a detector (stopped; call Start).
func New(cfg Config) *Detector {
	if cfg.Sched == nil || cfg.Rng == nil || cfg.Send == nil {
		panic("gossipfd: Sched, Rng and Send are required")
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 50 * time.Millisecond
	}
	if cfg.FailTimeout <= 0 {
		cfg.FailTimeout = 8 * cfg.GossipInterval
	}
	if cfg.CleanupTimeout <= 0 {
		cfg.CleanupTimeout = 2 * cfg.FailTimeout
	}
	// The detector owns its member ordering (and the view's slice is
	// shared), so copy before sorting. Region slices are already
	// ascending, but the sorted order is this package's invariant — keep
	// enforcing it locally.
	members := append([]topology.NodeID(nil), cfg.View.RegionMembers...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	d := &Detector{
		cfg:     cfg,
		order:   members,
		entries: make([]entry, len(members)),
	}
	now := cfg.Sched.Now()
	for i := range d.entries {
		d.entries[i] = entry{updatedAt: now, known: true}
	}
	d.self = d.indexOf(cfg.View.Self)
	return d
}

// indexOf returns n's position in order, or -1 for a node outside the
// region. Region members are usually a contiguous id range, which a range
// check resolves; otherwise it binary-searches.
func (d *Detector) indexOf(n topology.NodeID) int {
	if len(d.order) == 0 {
		return -1
	}
	if i := int(n - d.order[0]); i >= 0 && i < len(d.order) && d.order[i] == n {
		return i
	}
	i := sort.Search(len(d.order), func(i int) bool { return d.order[i] >= n })
	if i < len(d.order) && d.order[i] == n {
		return i
	}
	return -1
}

// Start begins periodic gossip. Idempotent.
func (d *Detector) Start() {
	if d.running {
		return
	}
	d.running = true
	d.scheduleTick()
}

// Stop halts gossip. Idempotent.
func (d *Detector) Stop() {
	if !d.running {
		return
	}
	d.running = false
	if d.ticker != nil {
		d.ticker.Stop()
		d.ticker = nil
	}
}

func (d *Detector) scheduleTick() {
	// Jitter desynchronizes members so gossip rounds do not phase-lock.
	delay := time.Duration(d.cfg.Rng.Jitter(float64(d.cfg.GossipInterval), 0.1))
	d.ticker = d.cfg.Sched.After(delay, func() {
		d.tick()
		if d.running {
			d.scheduleTick()
		}
	})
}

// tick increments the own counter, sweeps timeouts, and gossips the table
// to one random live peer.
func (d *Detector) tick() {
	now := d.cfg.Sched.Now()
	self := &d.entries[d.self]
	self.counter++
	self.updatedAt = now

	d.sweep(now)

	target, ok := d.randomLivePeer()
	if !ok {
		return
	}
	counters := make([]uint64, len(d.order))
	for i := range d.entries {
		if e := &d.entries[i]; e.known {
			counters[i] = e.counter
		}
	}
	d.cfg.Send(target, wire.Message{
		Type:     wire.TypeHeartbeat,
		From:     d.cfg.View.Self,
		Counters: counters,
	})
}

// sweep updates suspicion state from timeouts, in node order.
func (d *Detector) sweep(now time.Duration) {
	for i := range d.entries {
		e := &d.entries[i]
		if i == d.self || !e.known {
			continue
		}
		silence := now - e.updatedAt
		switch {
		case silence > d.cfg.CleanupTimeout:
			e.known = false
			e.tombstone = e.counter
		case silence > d.cfg.FailTimeout && !e.suspected:
			e.suspected = true
			if d.cfg.OnSuspect != nil {
				d.cfg.OnSuspect(d.order[i])
			}
		}
	}
}

// randomLivePeer draws one gossip target uniformly from the live peers in
// node order (one Intn draw).
func (d *Detector) randomLivePeer() (topology.NodeID, bool) {
	candidates := d.candidates[:0]
	for i, n := range d.order {
		if e := &d.entries[i]; i != d.self && e.known && !e.suspected {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		// Everyone looks dead — typical after this node itself was
		// partitioned or paused. Fall back to the static view so a
		// rejoining member can re-establish contact instead of going
		// permanently mute.
		for i, n := range d.order {
			if i != d.self {
				candidates = append(candidates, n)
			}
		}
	}
	d.candidates = candidates
	if len(candidates) == 0 {
		return topology.NoNode, false
	}
	return candidates[d.cfg.Rng.Intn(len(candidates))], true
}

// Receive merges an incoming heartbeat table (wire.TypeHeartbeat).
func (d *Detector) Receive(msg wire.Message) {
	if msg.Type != wire.TypeHeartbeat {
		return
	}
	now := d.cfg.Sched.Now()
	for i, c := range msg.Counters {
		if i >= len(d.order) {
			break
		}
		if i == d.self {
			continue
		}
		e := &d.entries[i]
		if !e.known {
			// Re-admit a cleaned-up peer only on fresh evidence: a counter
			// strictly above its tombstone. Stale tables recirculating the
			// final pre-crash counter must not resurrect it.
			if c <= e.tombstone {
				continue
			}
			// Re-admission is a restore: the peer was considered failed
			// (unknown reads as suspected) and is demonstrably alive.
			*e = entry{known: true, suspected: true}
		}
		if c > e.counter {
			e.counter = c
			e.updatedAt = now
			if e.suspected {
				e.suspected = false
				if d.cfg.OnRestore != nil {
					d.cfg.OnRestore(d.order[i])
				}
			}
		}
	}
}

// Suspected reports whether n is currently suspected (unknown nodes count
// as suspected).
func (d *Detector) Suspected(n topology.NodeID) bool {
	if n == d.cfg.View.Self {
		return false
	}
	i := d.indexOf(n)
	return i < 0 || !d.entries[i].known || d.entries[i].suspected
}

// Live returns the sorted region members currently considered alive
// (including self).
func (d *Detector) Live() []topology.NodeID {
	out := make([]topology.NodeID, 0, len(d.order))
	for i, n := range d.order {
		if e := &d.entries[i]; e.known && !e.suspected {
			out = append(out, n)
		}
	}
	return out
}
