package eventq

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// Allocation-regression guards for the queue's hot paths. Steady-state
// event traffic costs zero allocations per operation — every sweep cell pays these paths tens of thousands of times,
// so a single stray allocation here multiplies into megabytes of garbage
// per trial. These tests fail on the first regression instead of waiting
// for someone to read a benchmark diff.

// TestSteadyStatePushPopFireAllocs guards the simulator main loop's pooled
// fast path: Push into a warm queue, PopFire releases the slot.
func TestSteadyStatePushPopFireAllocs(t *testing.T) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
	}
	// Warm the slot slab, the buckets and their item slices before
	// measuring.
	for i := 0; i < 64; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
		q.PopFire()
	}
	avg := testing.AllocsPerRun(200, func() {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
		q.PopFire()
	})
	if avg != 0 {
		t.Fatalf("steady-state Push+PopFire allocates %.2f objects/op, want 0", avg)
	}
}

// TestTimerChurnCancelAllocs guards the protocol-timer path: push a timer
// event and cancel it through its generation-checked handle; the slot must
// serve the next push straight away.
func TestTimerChurnCancelAllocs(t *testing.T) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
	}
	for i := 0; i < 64; i++ {
		if !q.Cancel(q.Push(time.Duration(r.Intn(1_000_000)), fn)) {
			t.Fatal("failed to cancel a live event")
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if !q.Cancel(q.Push(time.Duration(r.Intn(1_000_000)), fn)) {
			t.Fatal("failed to cancel a live event")
		}
	})
	if avg != 0 {
		t.Fatalf("timer Push+Cancel allocates %.2f objects/op, want 0", avg)
	}
}
