package netsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// widthOutcome is what one run of the width script observes: per-node
// delivery logs in arrival order and the per-type traffic counters.
type widthOutcome struct {
	logs                           [][]string
	sent, delivered, dropped, size [wire.TypeCount]int64
	partitioned                    int64
}

// runWidthScript drives unicast, multicast, hash loss, a crash window and
// a partition episode over a three-region chain. Receivers react from
// their own lane — a same-region unicast and a cross-region one — so the
// multi-lane run exercises lane-local sends, cross-lane outboxes and
// barrier-time fault events.
func runWidthScript(t *testing.T, shards int) widthOutcome {
	t.Helper()
	topo, err := topology.Chain(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	const intra, inter = 5 * time.Millisecond, 50 * time.Millisecond
	nodeShard, eff := topo.NodeShards(shards)
	eng, err := sim.NewSharded(eff, nodeShard, inter)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Shards() != shards {
		t.Fatalf("engine has %d lanes, want %d", eng.Shards(), shards)
	}
	loss := NewHashLoss(7, 0.3, topo.NumNodes(), map[wire.Type]bool{wire.TypeData: true})
	net := New(eng, HierLatency{Topo: topo, IntraOneWay: intra, InterOneWay: inter}, loss)

	out := widthOutcome{logs: make([][]string, topo.NumNodes())}
	all := make([]topology.NodeID, topo.NumNodes())
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	for _, n := range all {
		n := n
		clk := eng.Clock(int32(n))
		region := topo.RegionOf(n)
		net.Register(n, func(p Packet) {
			out.logs[n] = append(out.logs[n], fmt.Sprintf("%v %v from=%d seq=%d", clk.Now(), p.Msg.Type, p.From, p.Msg.ID.Seq))
			if p.Msg.Type != wire.TypeData {
				return
			}
			reply := wire.Message{Type: wire.TypeLocalRequest, From: n, ID: p.Msg.ID}
			net.Unicast(n, topo.MemberAt(region, (int(n)+1)%4), reply)
			reply.Type = wire.TypeRemoteRequest
			net.Unicast(n, topo.MemberAt((region+1)%3, int(n)%4), reply)
		})
	}
	sender := topo.Sender()
	for i := 0; i < 6; i++ {
		msg := wire.Message{Type: wire.TypeData, From: sender, ID: wire.MessageID{Source: sender, Seq: uint64(i + 1)}}
		eng.At(time.Duration(i)*20*time.Millisecond, func() { net.Multicast(sender, all, msg) })
	}
	victim := topo.MemberAt(2, 3)
	eng.At(30*time.Millisecond, func() { net.SetDown(victim, true) })
	eng.At(70*time.Millisecond, func() { net.SetDown(victim, false) })
	eng.At(50*time.Millisecond, func() { net.SetPartition(map[topology.NodeID]int{topo.MemberAt(1, 0): 1, topo.MemberAt(1, 1): 1}) })
	eng.At(100*time.Millisecond, func() { net.ClearPartition() })
	eng.At(110*time.Millisecond, func() {
		net.Unicast(sender, topo.MemberAt(2, 0), wire.Message{Type: wire.TypeRepair, From: sender, ID: wire.MessageID{Source: sender, Seq: 99}})
	})
	eng.Run()

	st := net.Stats()
	for ty := 0; ty < wire.TypeCount; ty++ {
		out.sent[ty] = st.SentCount(wire.Type(ty))
		out.delivered[ty] = st.DeliveredCount(wire.Type(ty))
		out.dropped[ty] = st.DroppedCount(wire.Type(ty))
		out.size[ty] = st.BytesSent(wire.Type(ty))
	}
	out.partitioned = st.PartitionDrops()
	return out
}

// TestDeliveryAgreesAcrossWidths: the same script on a width-1 engine and
// on two and three lanes gives identical per-type counters and identical
// per-node delivery order.
func TestDeliveryAgreesAcrossWidths(t *testing.T) {
	want := runWidthScript(t, 1)
	if want.dropped[wire.TypeData] == 0 || want.partitioned == 0 || want.delivered[wire.TypeRemoteRequest] == 0 {
		t.Fatalf("script exercises too little: %+v", want)
	}
	for _, shards := range []int{2, 3} {
		if got := runWidthScript(t, shards); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d lanes diverge from width 1:\n got  %+v\n want %+v", shards, got, want)
		}
	}
}
