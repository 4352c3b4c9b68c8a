package repro_test

import (
	"testing"
	"time"

	"repro"
)

func TestGroupDefaults(t *testing.T) {
	g, err := repro.NewGroup()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumMembers() != 100 || g.NumRegions() != 1 {
		t.Fatalf("members=%d regions=%d", g.NumMembers(), g.NumRegions())
	}
	id := g.Publish([]byte("hello"))
	g.Run(time.Second)
	if got := g.CountReceived(id); got != 100 {
		t.Fatalf("received %d/100 on a lossless network", got)
	}
}

func TestGroupRecoversUnderLoss(t *testing.T) {
	params := repro.DefaultParams()
	params.C = 40 // guarantee long-term bufferers for certainty
	g, err := repro.NewGroup(
		repro.WithRegions(40),
		repro.WithDataLoss(0.3),
		repro.WithSeed(7),
		repro.WithParams(params),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.StartSessions()
	var ids []repro.MessageID
	for i := 0; i < 5; i++ {
		i := i
		g.At(time.Duration(i)*20*time.Millisecond, func() {
			ids = append(ids, g.Publish([]byte{byte(i)}))
		})
	}
	g.Run(3 * time.Second)
	for _, id := range ids {
		if got := g.CountReceived(id); got != 40 {
			t.Fatalf("message %v received by %d/40", id, got)
		}
	}
	s := g.Stats()
	if s.LocalRequests == 0 {
		t.Fatal("no recovery traffic despite 30% loss")
	}
	if s.MeanRecoveryMs <= 0 {
		t.Fatal("recovery latency not recorded")
	}
}

func TestGroupMultiRegion(t *testing.T) {
	g, err := repro.NewGroup(repro.WithRegions(10, 10, 10), repro.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumRegions() != 3 {
		t.Fatalf("regions = %d", g.NumRegions())
	}
	id := g.Publish([]byte("multi"))
	g.Run(2 * time.Second)
	if got := g.CountReceived(id); got != 30 {
		t.Fatalf("received %d/30", got)
	}
}

func TestGroupStar(t *testing.T) {
	g, err := repro.NewGroup(repro.WithStar(5, 5, 5), repro.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	id := g.Publish([]byte("star"))
	g.Run(2 * time.Second)
	if got := g.CountReceived(id); got != 15 {
		t.Fatalf("received %d/15", got)
	}
}

func TestGroupPolicies(t *testing.T) {
	for _, kind := range []repro.PolicyKind{
		repro.PolicyTwoPhase, repro.PolicyFixedHold, repro.PolicyBufferAll, repro.PolicyHashElect,
	} {
		g, err := repro.NewGroup(repro.WithRegions(10), repro.WithPolicy(kind), repro.WithSeed(5))
		if err != nil {
			t.Fatalf("policy %d: %v", kind, err)
		}
		id := g.Publish([]byte("p"))
		g.Run(2 * time.Second)
		if got := g.CountReceived(id); got != 10 {
			t.Fatalf("policy %d: received %d/10", kind, got)
		}
		if kind == repro.PolicyBufferAll && g.CountBuffered(id) != 10 {
			t.Fatal("buffer-all discarded")
		}
	}
}

func TestGroupInvalidOptions(t *testing.T) {
	if _, err := repro.NewGroup(repro.WithRegions()); err == nil {
		t.Fatal("empty regions accepted")
	}
	if _, err := repro.NewGroup(repro.WithRegions(0)); err == nil {
		t.Fatal("zero-size region accepted")
	}
}

func TestGroupLeaveAndCrash(t *testing.T) {
	g, err := repro.NewGroup(repro.WithRegions(10), repro.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	id := g.Publish([]byte("x"))
	g.Run(500 * time.Millisecond)
	g.Leave(3)
	g.Crash(4)
	id2 := g.Publish([]byte("y"))
	g.Run(time.Second)
	if g.Member(3).HasReceived(id2) || g.Member(4).HasReceived(id2) {
		t.Fatal("departed members processed new traffic")
	}
	_ = id
}

func TestGroupDeterministicAcrossRuns(t *testing.T) {
	run := func() (int64, int64) {
		g, err := repro.NewGroup(repro.WithRegions(20), repro.WithDataLoss(0.2), repro.WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		g.StartSessions()
		g.Publish([]byte("d"))
		g.Run(time.Second)
		return g.TotalPacketsSent(), g.Stats().Delivered
	}
	p1, d1 := run()
	p2, d2 := run()
	if p1 != p2 || d1 != d2 {
		t.Fatalf("same seed diverged: packets %d vs %d, delivered %d vs %d", p1, p2, d1, d2)
	}
}

func TestGroupBurstLoss(t *testing.T) {
	params := repro.DefaultParams()
	params.C = 20
	g, err := repro.NewGroup(
		repro.WithRegions(20),
		repro.WithBurstDataLoss(0.2),
		repro.WithSeed(8),
		repro.WithParams(params),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.StartSessions()
	id := g.Publish([]byte("burst"))
	g.Run(3 * time.Second)
	if got := g.CountReceived(id); got != 20 {
		t.Fatalf("received %d/20 under burst loss", got)
	}
}

func TestFigureFacades(t *testing.T) {
	if s := repro.Figure3([]float64{6}, 100, 1000, 1); len(s) != 2 {
		t.Fatal("Figure3 facade")
	}
	if s := repro.Figure4([]float64{1, 6}, 100, 1000, 1); len(s) != 2 {
		t.Fatal("Figure4 facade")
	}
	if s, err := repro.Figure6(2, 1); err != nil || len(s.X) == 0 {
		t.Fatalf("Figure6 facade: %v", err)
	}
	if s, err := repro.Figure7(1); err != nil || len(s.TimesMs) == 0 {
		t.Fatalf("Figure7 facade: %v", err)
	}
	if res, err := repro.RunSearch(repro.SearchConfig{RegionSize: 30, Bufferers: 5, Runs: 3, Seed: 1}); err != nil || res.FailedRuns != 0 {
		t.Fatalf("RunSearch facade: %+v err=%v", res, err)
	}
}

// TestGroupByteBudget drives the facade's byte-budget path: a binding
// budget produces pressure evictions and the byte stats surface through
// GroupStats, while delivery losses stay explicitly counted.
func TestGroupByteBudget(t *testing.T) {
	g, err := repro.NewGroup(
		repro.WithRegions(10),
		repro.WithSeed(3),
		repro.WithDataLoss(0.1),
		repro.WithByteBudget(2048),
		repro.WithCopyOnStore(),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.StartSessions()
	for i := 0; i < 10; i++ {
		i := i
		g.At(time.Duration(i)*20*time.Millisecond, func() { g.Publish(make([]byte, 512)) })
	}
	g.Run(3 * time.Second)
	s := g.Stats()
	if s.PressureEvictions == 0 {
		t.Fatal("a 2 KB budget under a 5 KB workload produced no pressure evictions")
	}
	if s.PeakBufferedBytes == 0 || s.PeakBufferedBytes > 2048 {
		t.Fatalf("peak buffered bytes %d outside (0, 2048]", s.PeakBufferedBytes)
	}
	if s.ByteIntegral <= 0 {
		t.Fatal("byte integral not accumulated")
	}
}

// TestGroupMatchesRunScenario drives a Group exactly like a lossy legacy
// cell — sessions on, 256-byte messages Gap apart, run to the horizon —
// and checks it sends the same packets and delivers the same messages as
// RunScenario for the same seed: the facade's topology, loss stream and
// engine width come from the kernel's own builders.
func TestGroupMatchesRunScenario(t *testing.T) {
	for _, mode := range []string{"", "hash"} {
		for seed := uint64(1); seed <= 3; seed++ {
			sc := repro.Scenario{Regions: []int{30, 30}, Loss: 0.2, LossMode: mode,
				Policy: "two-phase", Msgs: 20, Gap: 20 * time.Millisecond, Horizon: 3 * time.Second}
			want, err := repro.RunScenario(sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			loss := repro.WithDataLoss(sc.Loss)
			if mode == "hash" {
				loss = repro.WithHashDataLoss(sc.Loss)
			}
			g, err := repro.NewGroup(repro.WithRegions(sc.Regions...), loss, repro.WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			g.StartSessions()
			payload := make([]byte, 256)
			for i := 0; i < sc.Msgs; i++ {
				g.At(time.Duration(i)*sc.Gap, func() { g.Publish(payload) })
			}
			g.Run(sc.Horizon)
			if got := float64(g.TotalPacketsSent()); got != want["packets_sent"] {
				t.Errorf("mode %q seed %d: Group sent %v packets, RunScenario %v", mode, seed, got, want["packets_sent"])
			}
			ratio := float64(g.Stats().Delivered) / float64(g.NumMembers()*sc.Msgs)
			if ratio != want["delivery_ratio"] {
				t.Errorf("mode %q seed %d: Group delivery %v, RunScenario %v", mode, seed, ratio, want["delivery_ratio"])
			}
		}
	}
}
