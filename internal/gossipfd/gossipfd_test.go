package gossipfd

import (
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// fdCluster wires one detector per region member over a simulated network.
type fdCluster struct {
	sim       *sim.Sim
	net       *netsim.Network
	topo      *topology.Topology
	detectors map[topology.NodeID]*Detector
	suspects  map[topology.NodeID][]topology.NodeID // observer -> suspected
	restores  map[topology.NodeID][]topology.NodeID
}

func newFDCluster(t *testing.T, n int, seed uint64) *fdCluster {
	t.Helper()
	topo, err := topology.SingleRegion(n)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New()
	net := netsim.New(s, netsim.UniformLatency{Delay: 2 * time.Millisecond}, nil)
	root := rng.New(seed)
	c := &fdCluster{
		sim: s, net: net, topo: topo,
		detectors: make(map[topology.NodeID]*Detector),
		suspects:  make(map[topology.NodeID][]topology.NodeID),
		restores:  make(map[topology.NodeID][]topology.NodeID),
	}
	for _, node := range topo.Members(0) {
		node := node
		view, err := topo.ViewOf(node)
		if err != nil {
			t.Fatal(err)
		}
		d := New(Config{
			View:  view,
			Sched: s,
			Rng:   root.Split(uint64(node) + 1),
			Send: func(to topology.NodeID, msg wire.Message) {
				net.Unicast(node, to, msg)
			},
			OnSuspect: func(x topology.NodeID) { c.suspects[node] = append(c.suspects[node], x) },
			OnRestore: func(x topology.NodeID) { c.restores[node] = append(c.restores[node], x) },
		})
		c.detectors[node] = d
		net.Register(node, func(p netsim.Packet) { d.Receive(p.Msg) })
	}
	return c
}

func (c *fdCluster) startAll() {
	for _, d := range c.detectors {
		d.Start()
	}
}

func TestNoSuspicionsWhenAllAlive(t *testing.T) {
	c := newFDCluster(t, 8, 1)
	c.startAll()
	c.sim.RunUntil(3 * time.Second)
	for n, sus := range c.suspects {
		if len(sus) != 0 {
			t.Fatalf("node %d suspected %v with everyone alive", n, sus)
		}
	}
	for n, d := range c.detectors {
		if got := len(d.Live()); got != 8 {
			t.Fatalf("node %d sees %d live members", n, got)
		}
	}
}

func TestCrashDetected(t *testing.T) {
	c := newFDCluster(t, 8, 2)
	c.startAll()
	victim := topology.NodeID(3)
	c.sim.At(time.Second, func() {
		c.detectors[victim].Stop()
		c.net.SetDown(victim, true)
	})
	c.sim.RunUntil(4 * time.Second)
	for _, n := range c.topo.Members(0) {
		if n == victim {
			continue
		}
		if !c.detectors[n].Suspected(victim) {
			// It may have been cleaned up entirely, which also counts.
			found := false
			for _, s := range c.suspects[n] {
				if s == victim {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d never suspected crashed node %d", n, victim)
			}
		}
	}
	// No false positives.
	for n, sus := range c.suspects {
		for _, s := range sus {
			if s != victim {
				t.Fatalf("node %d falsely suspected %d", n, s)
			}
		}
	}
}

func TestRecoveryRestores(t *testing.T) {
	c := newFDCluster(t, 6, 3)
	c.startAll()
	victim := topology.NodeID(2)
	c.sim.At(500*time.Millisecond, func() {
		c.detectors[victim].Stop()
		c.net.SetDown(victim, true)
	})
	// Revive before cleanup expires (cleanup = 2 * fail = 1.6s after
	// silence starts).
	c.sim.At(1200*time.Millisecond, func() {
		c.net.SetDown(victim, false)
		c.detectors[victim].Start()
	})
	c.sim.RunUntil(4 * time.Second)
	restoredSomewhere := false
	for _, rs := range c.restores {
		for _, r := range rs {
			if r == victim {
				restoredSomewhere = true
			}
		}
	}
	if !restoredSomewhere {
		t.Fatal("revived node never restored at any peer")
	}
	for _, n := range c.topo.Members(0) {
		if n == victim {
			continue
		}
		if c.detectors[n].Suspected(victim) {
			t.Fatalf("node %d still suspects revived node %d", n, victim)
		}
	}
}

func TestCleanupRemovesDeadPeer(t *testing.T) {
	c := newFDCluster(t, 4, 4)
	c.startAll()
	victim := topology.NodeID(1)
	c.sim.At(200*time.Millisecond, func() {
		c.detectors[victim].Stop()
		c.net.SetDown(victim, true)
	})
	c.sim.RunUntil(10 * time.Second)
	for _, n := range c.topo.Members(0) {
		if n == victim {
			continue
		}
		for _, live := range c.detectors[n].Live() {
			if live == victim {
				t.Fatalf("node %d still lists dead node %d as live", n, victim)
			}
		}
		if !c.detectors[n].Suspected(victim) {
			// After cleanup the node is unknown, which must read as
			// suspected.
			t.Fatalf("node %d does not report cleaned-up node as suspected", n)
		}
	}
}

func TestSuspectedSelfAlwaysFalse(t *testing.T) {
	c := newFDCluster(t, 3, 5)
	if c.detectors[0].Suspected(0) {
		t.Fatal("node suspects itself")
	}
}

func TestReceiveIgnoresOtherTypes(t *testing.T) {
	c := newFDCluster(t, 3, 6)
	d := c.detectors[0]
	d.Receive(wire.Message{Type: wire.TypeData, Counters: []uint64{9, 9, 9}})
	// Counters must be untouched: node 1 still at 0.
	if d.entries[1].counter != 0 {
		t.Fatal("non-heartbeat message merged")
	}
}

func TestCountersMonotone(t *testing.T) {
	c := newFDCluster(t, 3, 7)
	d := c.detectors[0]
	d.Receive(wire.Message{Type: wire.TypeHeartbeat, From: 1, Counters: []uint64{0, 5, 0}})
	if d.entries[1].counter != 5 {
		t.Fatalf("counter = %d", d.entries[1].counter)
	}
	// A stale table must not regress the counter.
	d.Receive(wire.Message{Type: wire.TypeHeartbeat, From: 2, Counters: []uint64{0, 3, 0}})
	if d.entries[1].counter != 5 {
		t.Fatalf("counter regressed to %d", d.entries[1].counter)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	c := newFDCluster(t, 3, 8)
	d := c.detectors[0]
	d.Start()
	d.Start()
	d.Stop()
	d.Stop()
	c.sim.RunUntil(time.Second)
	// After stop, no more gossip from node 0.
	sent := c.net.Stats().SentCount(wire.TypeHeartbeat)
	c.sim.RunUntil(2 * time.Second)
	// Other detectors were never started, so traffic must not grow.
	if got := c.net.Stats().SentCount(wire.TypeHeartbeat); got != sent {
		t.Fatalf("gossip continued after Stop: %d -> %d", sent, got)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without deps did not panic")
		}
	}()
	New(Config{})
}

// TestSuspectOrderAscending pins OnSuspect to node order. Peers that are
// silent from the start cross the fail timeout in the same sweep, and the
// sweep must report them in ascending node order on every run: a sweep in
// map order reported three simultaneous crashes in three different orders
// across 30 same-seed runs.
func TestSuspectOrderAscending(t *testing.T) {
	victims := []topology.NodeID{3, 4, 5}
	for run := 0; run < 30; run++ {
		c := newFDCluster(t, 6, 9)
		for _, v := range victims {
			c.net.SetDown(v, true)
		}
		for _, n := range []topology.NodeID{0, 1, 2} {
			c.detectors[n].Start()
		}
		c.sim.RunUntil(2 * time.Second)
		for _, n := range []topology.NodeID{0, 1, 2} {
			if got := c.suspects[n]; !slices.Equal(got, victims) {
				t.Fatalf("run %d: node %d suspected %v, want %v", run, n, got, victims)
			}
		}
	}
}
