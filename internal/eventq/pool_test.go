package eventq

import (
	"testing"
	"time"
)

// TestPopFireRecyclesIntoPush proves slot reuse works: the slot PopFire
// released serves the very next Push, and its generation has advanced so
// the handle from the first life is stale.
func TestPopFireRecyclesIntoPush(t *testing.T) {
	var q Queue
	h1 := q.Push(1, func() {})
	at, fn, ok := q.PopFire()
	if !ok || at != 1 || fn == nil {
		t.Fatalf("PopFire = (%v, fn==nil:%v, %v)", at, fn == nil, ok)
	}
	h2 := q.Push(2, func() {})
	if h2.slot != h1.slot {
		t.Fatal("fired slot was not reused by the next Push")
	}
	if h2.gen == h1.gen {
		t.Fatal("generation did not advance across reuse")
	}
}

// TestCancelRefusesStaleHandle is the safety property slot reuse depends
// on: a Stop on a timer whose event already fired must never cancel the
// unrelated event that since reused the slot.
func TestCancelRefusesStaleHandle(t *testing.T) {
	var q Queue
	stale := q.Push(1, func() {})
	if _, _, ok := q.PopFire(); !ok {
		t.Fatal("PopFire on a non-empty queue failed")
	}
	reborn := q.Push(2, func() {}) // reuses the slot
	if reborn.slot != stale.slot {
		t.Fatal("expected slot reuse for this test's premise")
	}
	if q.Cancel(stale) {
		t.Fatal("stale handle cancelled the reborn event")
	}
	if q.Len() != 1 {
		t.Fatalf("queue length %d, want 1", q.Len())
	}
	if !q.Cancel(reborn) {
		t.Fatal("fresh handle failed to cancel its own event")
	}
	if q.Cancel(reborn) {
		t.Fatal("double Cancel succeeded")
	}
}

// TestCancelOrderingUnchanged replays a deterministic push/cancel/fire mix
// and checks the (time, insertion) total order survives cancellation and
// slot reuse.
func TestCancelOrderingUnchanged(t *testing.T) {
	var q Queue
	var fired []int
	var hs []Handle
	push := func(at time.Duration, tag int) {
		hs = append(hs, q.Push(at, func() { fired = append(fired, tag) }))
	}
	push(30, 0)
	push(10, 1)
	push(20, 2)
	if !q.Cancel(hs[2]) {
		t.Fatal("cancel failed")
	}
	push(10, 3) // same instant as tag 1: must fire after it
	push(5, 4)
	push(20, 5) // reuses tag 2's slot behind its tombstone
	drain(&q)
	want := []int{4, 1, 3, 5, 0}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestCancelDropsClosure pins the memory half of O(1) Cancel: the
// callback is released at once, not when its tombstone reaches the head.
func TestCancelDropsClosure(t *testing.T) {
	var q Queue
	q.Push(1, func() {})
	h := q.Push(100, func() {})
	if !q.Cancel(h) {
		t.Fatal("cancel failed")
	}
	if q.slots[h.slot].fn != nil {
		t.Fatal("cancelled slot still holds its callback")
	}
}
