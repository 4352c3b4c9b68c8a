package eventq

import (
	"testing"
	"time"
)

// FuzzQueueOrder runs push/pushKeyed/cancel/pop/peek scripts against a
// sorting oracle. Keys come from tiny alphabets, so prefixes collide,
// buckets empty and reopen, and freed slots are reused while stale handles
// to them are still around. Every pop must be the oracle's minimum
// (at, pushAt, src, seq) among events neither popped nor cancelled; Cancel
// must succeed exactly for such events, so a stale handle never cancels a
// reused slot; every callback fires at most once and never after its
// cancel; and Len must count live events only.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 3, 3})
	f.Add([]byte{1, 0x25, 1, 0x25, 2, 0, 1, 0x25, 3, 3, 4})
	f.Add([]byte{0, 8, 2, 0, 0, 8, 3, 2, 0, 0, 16, 4, 3, 3})
	f.Add([]byte{1, 0xff, 1, 0x00, 1, 0x5a, 2, 1, 4, 3, 2, 1, 1, 0x5a, 3, 3, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		type rec struct {
			at, pushAt time.Duration
			src        int32
			h          Handle
			done       bool // popped or cancelled
		}
		var (
			q     Queue
			recs  []rec
			fired = -1
			live  int
		)
		push := func(at, pushAt time.Duration, src int32) {
			id := len(recs)
			fn := func() {
				if recs[id].done {
					t.Fatalf("event %d fired twice or after its cancel", id)
				}
				fired = id
			}
			var h Handle
			if pushAt == 0 && src == 0 {
				h = q.Push(at, fn)
			} else {
				h = q.PushKeyed(at, pushAt, src, fn)
			}
			recs = append(recs, rec{at: at, pushAt: pushAt, src: src, h: h})
			live++
		}
		// oracleMin is the first pending record in (at, pushAt, src, seq)
		// order; ids are push order, so scanning ascending ids and keeping
		// strict improvements breaks prefix ties by seq.
		oracleMin := func() int {
			best := -1
			for i := range recs {
				r := &recs[i]
				if r.done {
					continue
				}
				if best < 0 {
					best = i
					continue
				}
				if b := &recs[best]; r.at < b.at ||
					r.at == b.at && (r.pushAt < b.pushAt || r.pushAt == b.pushAt && r.src < b.src) {
					best = i
				}
			}
			return best
		}
		pop := func() {
			want := oracleMin()
			fired = -1
			at, fn, ok := q.PopFire()
			if ok != (want >= 0) {
				t.Fatalf("PopFire ok=%v, oracle has event %d", ok, want)
			}
			if !ok {
				return
			}
			fn()
			if fired != want || at != recs[want].at {
				t.Fatalf("PopFire fired event %d at %v, want event %d at %v", fired, at, want, recs[want].at)
			}
			recs[want].done = true
			live--
		}
		for i := 0; i < len(script); i++ {
			op, arg := script[i]%5, script[i]/5
			switch op {
			case 0:
				push(time.Duration(arg%4), 0, 0)
			case 1:
				// at, pushAt and src from 2 bits each of the next byte.
				var b byte
				if i+1 < len(script) {
					i++
					b = script[i]
				}
				push(time.Duration(b&3), time.Duration(b>>2&3), int32(b>>4&3)-1)
			case 2:
				if len(recs) == 0 {
					continue
				}
				r := &recs[int(arg)%len(recs)]
				if got := q.Cancel(r.h); got != !r.done {
					t.Fatalf("Cancel(%+v) = %v for an event with done=%v", r.h, got, r.done)
				}
				if !r.done {
					r.done = true
					live--
				}
			case 3:
				pop()
			case 4:
				at, ok := q.PeekAt()
				want := oracleMin()
				if ok != (want >= 0) || (ok && at != recs[want].at) {
					t.Fatalf("PeekAt = %v, %v; oracle has event %d", at, ok, want)
				}
			}
			if q.Len() != live {
				t.Fatalf("Len = %d, want %d live events", q.Len(), live)
			}
		}
		for live > 0 {
			pop()
		}
		if _, _, ok := q.PopFire(); ok {
			t.Fatal("PopFire found an event the oracle does not have")
		}
	})
}
