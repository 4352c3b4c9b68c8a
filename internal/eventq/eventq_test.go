package eventq

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// drain pops and runs every pending event in order.
func drain(q *Queue) {
	for {
		_, fn, ok := q.PopFire()
		if !ok {
			return
		}
		fn()
	}
}

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Push(30*time.Millisecond, func() { got = append(got, 3) })
	q.Push(10*time.Millisecond, func() { got = append(got, 1) })
	q.Push(20*time.Millisecond, func() { got = append(got, 2) })
	drain(&q)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		q.Push(5*time.Millisecond, func() { got = append(got, i) })
	}
	drain(&q)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of insertion order: %v", got)
		}
	}
}

func TestRemove(t *testing.T) {
	var q Queue
	fired := make(map[int]bool)
	mk := func(i int, at time.Duration) Handle {
		return q.Push(at, func() { fired[i] = true })
	}
	h1 := mk(1, 10)
	h2 := mk(2, 20)
	h3 := mk(3, 30)
	if !q.Cancel(h2) {
		t.Fatal("Cancel(h2) = false")
	}
	if q.Cancel(h2) {
		t.Fatal("second Cancel(h2) = true")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after one cancel of three, want 2", q.Len())
	}
	drain(&q)
	if !fired[1] || fired[2] || !fired[3] {
		t.Fatalf("fired = %v, want 1 and 3 only", fired)
	}
	if q.Cancel(h1) || q.Cancel(h3) {
		t.Fatal("Cancel after PopFire returned true")
	}
	if q.Cancel(Handle{}) {
		t.Fatal("Cancel(Handle{}) = true")
	}
}

func TestRemoveHead(t *testing.T) {
	var q Queue
	h1 := q.Push(10, func() {})
	q.Push(20, func() {})
	if !q.Cancel(h1) {
		t.Fatal("Cancel head failed")
	}
	if got, ok := q.PeekAt(); !ok || got != 20 {
		t.Fatalf("head after cancel at %v (ok=%v), want 20", got, ok)
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if _, fn, ok := q.PopFire(); ok || fn != nil {
		t.Fatal("PopFire on empty queue reported an event")
	}
	if _, ok := q.PeekAt(); ok {
		t.Fatal("PeekAt on empty queue reported an event")
	}
	// A queue holding only tombstones is empty too.
	q.Cancel(q.Push(5, func() {}))
	if _, ok := q.PeekAt(); ok || q.Len() != 0 {
		t.Fatalf("all-cancelled queue: PeekAt ok=%v, Len=%d", ok, q.Len())
	}
}

func TestPeekMatchesPop(t *testing.T) {
	var q Queue
	q.Push(7, func() {})
	q.Push(3, func() {})
	p, _ := q.PeekAt()
	if got, _, _ := q.PopFire(); got != p {
		t.Fatalf("PeekAt %v and PopFire %v disagree", p, got)
	}
}

// TestHeapPropertyRandomized is a property test: for any sequence of pushes
// with arbitrary times, popping yields a non-decreasing time sequence, and
// equal times preserve insertion order.
func TestHeapPropertyRandomized(t *testing.T) {
	prop := func(times []uint16) bool {
		var q Queue
		type rec struct {
			at  time.Duration
			seq int
		}
		var popped []rec
		for i, raw := range times {
			at := time.Duration(raw % 64) // force many collisions
			q.Push(at, func() { popped = append(popped, rec{at, i}) })
		}
		drain(&q)
		if len(popped) != len(times) {
			return false
		}
		return sort.SliceIsSorted(popped, func(i, j int) bool {
			if popped[i].at != popped[j].at {
				return popped[i].at < popped[j].at
			}
			return popped[i].seq < popped[j].seq
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedRemoval interleaves pushes and cancels and checks the
// survivors fire in order.
func TestRandomizedRemoval(t *testing.T) {
	prop := func(ops []uint16) bool {
		var q Queue
		var handles []Handle
		var firedTimes []time.Duration
		for _, op := range ops {
			if op%3 == 0 && len(handles) > 0 {
				q.Cancel(handles[int(op)%len(handles)])
			} else {
				at := time.Duration(op % 128)
				handles = append(handles, q.Push(at, func() { firedTimes = append(firedTimes, at) }))
			}
		}
		pending := q.Len()
		drain(&q)
		if len(firedTimes) != pending {
			return false
		}
		return sort.SliceIsSorted(firedTimes, func(i, j int) bool { return firedTimes[i] < firedTimes[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	var q Queue
	fn := func() {}
	for i := 0; i < b.N; i++ {
		q.Push(time.Duration(i%1024), fn)
		if q.Len() > 512 {
			q.PopFire()
		}
	}
}
