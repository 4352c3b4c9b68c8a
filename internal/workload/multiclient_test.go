package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// specForProperty builds a small but varied spec from raw fuzz-ish inputs.
func specForProperty(kindRaw, clientsRaw, msgsRaw uint8, zipfRaw, winRaw uint8) *Spec {
	s := &Spec{
		Clients: int(clientsRaw%6) + 1,
		Msgs:    int(msgsRaw%40) + 1,
		Arrival: []string{ArrivalConstant, ArrivalPoisson, ArrivalBurst}[kindRaw%3],
		Gap:     10 * time.Millisecond,
		ZipfS:   float64(zipfRaw%3) * 0.7,
	}
	if s.Arrival == ArrivalBurst {
		s.BurstLen = int(kindRaw%4) + 1
		s.BurstGap = time.Millisecond
	}
	if winRaw%2 == 1 {
		s.Windows = []Window{
			{From: 0, To: 50 * time.Millisecond, Factor: 4},
			{From: 50 * time.Millisecond, To: 200 * time.Millisecond, Factor: 0.5},
		}
	}
	return s
}

// Property: the merged multi-client timeline has exactly Msgs events, is
// valid (monotone, positive sizes), spans to its maximum instant, and is
// byte-deterministic under a fixed seed.
func TestTimelineMergeProperty(t *testing.T) {
	prop := func(kindRaw, clientsRaw, msgsRaw, zipfRaw, winRaw uint8, seed uint16) bool {
		s := specForProperty(kindRaw, clientsRaw, msgsRaw, zipfRaw, winRaw)
		tl, err := s.Timeline(uint64(seed))
		if err != nil {
			return false
		}
		again, err := s.Timeline(uint64(seed))
		if err != nil || len(tl) != len(again) {
			return false
		}
		if len(tl) != s.Msgs || !tl.Valid() {
			return false
		}
		max := time.Duration(0)
		for i := range tl {
			if tl[i] != again[i] {
				return false
			}
			if tl[i].Client >= s.Clients {
				return false
			}
			if tl[i].At > max {
				max = tl[i].At
			}
		}
		return tl.Span() == max && tl.Clients() <= s.Clients
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfShares(t *testing.T) {
	counts := zipfShares(100, 4, 1)
	sum := 0
	for i, c := range counts {
		sum += c
		if i > 0 && c > counts[i-1] {
			t.Fatalf("zipf counts not non-increasing: %v", counts)
		}
	}
	if sum != 100 {
		t.Fatalf("zipf counts sum %d, want 100", sum)
	}
	if counts[0] <= counts[3] {
		t.Fatalf("zipf skew missing: %v", counts)
	}
	even := zipfShares(12, 4, 0)
	for _, c := range even {
		if c != 3 {
			t.Fatalf("even split %v", even)
		}
	}
	// Fewer messages than clients: trailing clients get zero, total holds.
	sparse := zipfShares(2, 5, 1.1)
	sum = 0
	for _, c := range sparse {
		sum += c
	}
	if sum != 2 {
		t.Fatalf("sparse split %v sums to %d", sparse, sum)
	}
}

// Per-client streams are label-derived (counter-hash), so one client's
// arrivals never depend on how much randomness other clients consumed:
// with an even split, growing the client set must not change client 0's
// publish instants.
func TestClientStreamsIndependent(t *testing.T) {
	base := &Spec{Clients: 2, Msgs: 40, Arrival: ArrivalPoisson, Gap: 5 * time.Millisecond}
	wide := &Spec{Clients: 4, Msgs: 80, Arrival: ArrivalPoisson, Gap: 5 * time.Millisecond}
	a, err := base.Timeline(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wide.Timeline(11)
	if err != nil {
		t.Fatal(err)
	}
	at := func(tl Timeline, client int) []time.Duration {
		var out []time.Duration
		for _, e := range tl {
			if e.Client == client {
				out = append(out, e.At)
			}
		}
		return out
	}
	ca, cb := at(a, 0), at(b, 0)
	if len(ca) != 20 || len(cb) != 20 {
		t.Fatalf("client 0 got %d and %d events, want 20 each", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("client 0 schedule shifted when client count grew: %v vs %v", ca[i], cb[i])
		}
	}
}

// Rate windows modulate arrival density: a 4x window must pack publishes
// tighter than the surrounding base-rate span.
func TestRateWindowsModulateDensity(t *testing.T) {
	s := &Spec{
		Clients: 1, Msgs: 200, Arrival: ArrivalConstant, Gap: 10 * time.Millisecond,
		Windows: []Window{{From: 0, To: 250 * time.Millisecond, Factor: 4}},
	}
	tl, err := s.Timeline(1)
	if err != nil {
		t.Fatal(err)
	}
	inWindow := 0
	for _, e := range tl {
		if e.At < 250*time.Millisecond {
			inWindow++
		}
	}
	// 4x rate: 2.5ms gaps inside the window → 100 events in 250ms vs 25
	// at the base rate.
	if inWindow != 100 {
		t.Fatalf("%d events inside the 4x window, want 100", inWindow)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Clients: 0, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond},
		{Clients: 1, Msgs: 0, Arrival: ArrivalConstant, Gap: time.Millisecond},
		{Clients: 1, Msgs: 1, Arrival: "weird", Gap: time.Millisecond},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: 0},
		{Clients: 1, Msgs: 1, Arrival: ArrivalBurst, Gap: time.Millisecond},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, ZipfS: -1},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond,
			Windows: []Window{{From: 5, To: 5, Factor: 1}}},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond,
			Windows: []Window{{From: 0, To: 5, Factor: 0}}},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, SizeModel: "zipf"},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, LateJoinFrac: 2},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, LateJoinFrac: 0.5},
		// NaN passes every plain < / > guard; each float field must still
		// reject it (and infinities).
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, ZipfS: math.NaN()},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond, ZipfS: math.Inf(1)},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond,
			Windows: []Window{{From: 0, To: 5, Factor: math.NaN()}}},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond,
			Windows: []Window{{From: 0, To: 5, Factor: math.Inf(1)}}},
		{Clients: 1, Msgs: 1, Arrival: ArrivalConstant, Gap: time.Millisecond,
			LateJoinFrac: math.NaN(), LateJoinAt: time.Second},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	good := Spec{Clients: 3, Msgs: 10, Arrival: ArrivalPoisson, Gap: time.Millisecond,
		ZipfS: 1.1, SizeModel: SizeLognormal, SizeMean: 512,
		LateJoinFrac: 0.25, LateJoinAt: time.Second, LateJoinSpread: time.Second}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestSpecToken(t *testing.T) {
	s := &Spec{Clients: 8, Msgs: 64, Arrival: ArrivalPoisson, Gap: time.Millisecond}
	if got := s.Token(); got != "poisson:c8:m64" {
		t.Fatalf("token %q", got)
	}
	s = &Spec{Clients: 8, Msgs: 64, Arrival: ArrivalPoisson, Gap: time.Millisecond,
		ZipfS: 1.1, SizeModel: SizeLognormal, SizeMean: 512,
		Windows: []Window{{From: 0, To: 1, Factor: 2}}}
	if got := s.Token(); got != "poisson:c8:m64:z1.1:w1:lognormal512" {
		t.Fatalf("token %q", got)
	}
	s = &Spec{Clients: 1, Msgs: 40, Arrival: ArrivalConstant, Gap: time.Millisecond,
		LateJoinFrac: 0.25, LateJoinAt: 500 * time.Millisecond}
	if got := s.Token(); got != "constant:c1:m40:vod0.25@500ms" {
		t.Fatalf("token %q", got)
	}
}
