// Package eventq implements the ordered event queue at the heart of the
// discrete-event simulator.
//
// # Order
//
// Events pop in the total order (at, pushAt, src, seq): the virtual time
// the event fires, the time its pusher observed, a stable pushing-context
// index, and a sequence number assigned on push (see PushKeyed; Push
// leaves pushAt and src zero, which reduces the order to (at, seq), i.e.
// same-instant events fire in insertion order). This total order is what
// makes whole-system simulations deterministic: two runs with the same
// seed execute the exact same event interleaving.
//
// # Buckets
//
// The queue is a small binary heap of buckets, one per distinct prefix
// (at, pushAt, src) among pending events. A bucket is a FIFO of slot
// references. Events with equal prefixes are adjacent in the total order
// and seq grows with push order, so appending each push to its prefix's
// bucket and popping buckets in prefix order yields exactly the
// (at, pushAt, src, seq) order, by construction rather than by
// comparison. Simulated traffic collides on prefixes heavily (a multicast
// fan-out gives most receivers the same timestamp; a 100k-member trial
// holds ~1M pending events under a few hundred prefixes), so the heap
// sifts a few hundred entries instead of a million pointers. A push tries
// the bucket the previous push used, then an index from prefix to bucket;
// emptied buckets and their item slices are recycled. This is the
// calendar-queue observation (Brown, CACM 1988) narrowed to exact key
// ties.
//
// # Slots, handles and cancellation
//
// Callbacks live in a slab of slots, each with a generation that advances
// whenever the slot is released. Push returns a Handle (slot, generation),
// a plain value. Cancel releases the slot at once — the closure is dropped
// immediately and the slot can serve the next push — and leaves the
// bucket's 8-byte item as a tombstone whose generation no longer matches;
// that is O(1), plus one sift of the small bucket heap when it cancels a
// bucket's last live event. PopFire skips tombstones when their bucket
// reaches the head of the heap. Each bucket counts its live events, and a
// bucket whose last live event fires or is cancelled leaves the heap with
// all its tombstones, so the head bucket always holds a live event (PeekAt
// is a read) and a cancelled timer costs at most 8 bytes until its own
// deadline, never its closure. A stale handle (its event fired or was
// cancelled, and the slot may have been reused since) never matches the
// slot's current generation, so it can neither cancel nor fire a later
// event. Len counts live events only.
//
// Steady-state traffic allocates nothing: slots, buckets and item slices
// are all reused.
package eventq

import "time"

// Handle names one pushed event for Cancel. The zero Handle names no
// event.
type Handle struct {
	slot, gen uint32
}

// item is one bucket entry: a slot reference valid while gen matches the
// slot's generation, a tombstone after.
type item struct {
	slot, gen uint32
}

// slot holds one pending event's callback and the bucket it waits in.
// Generations start at 1, so the zero Handle never matches.
type slot struct {
	fn  func()
	gen uint32
	b   int32
}

// prefix is the ordering key a bucket shares: (at, pushAt, src).
type prefix struct {
	at, pushAt time.Duration
	src        int32
}

func (a prefix) less(b prefix) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pushAt != b.pushAt {
		return a.pushAt < b.pushAt
	}
	return a.src < b.src
}

// bucket is the FIFO of one prefix's events: items[head:] are pending,
// live of them not cancelled. pos is the bucket's heap index.
type bucket struct {
	key   prefix
	items []item
	head  int
	live  int
	pos   int
}

// entry is one heap element: a bucket and a copy of its key, so sifting
// compares without touching the bucket slab.
type entry struct {
	key prefix
	b   int32
}

// Queue is a priority queue of callbacks in (at, pushAt, src, seq) order.
// The zero value is ready to use. Queue is not safe for concurrent use.
type Queue struct {
	slots     []slot
	freeSlots []uint32
	live      int

	buckets     []bucket
	freeBuckets []int32
	heap        []entry
	// open maps each pending prefix to its bucket; last is 1 + the bucket
	// the most recent push used (0 for none), checked before the map.
	open map[prefix]int32
	last int32
}

// Len returns the number of pending (not cancelled) events.
func (q *Queue) Len() int { return q.live }

// Push schedules fn to run at virtual time at and returns a handle for
// Cancel. Scheduling in the past is allowed (the simulator clamps, firing
// such events "now"). It is PushKeyed with pushAt and src zero.
func (q *Queue) Push(at time.Duration, fn func()) Handle {
	return q.PushKeyed(at, 0, 0, fn)
}

// PushKeyed schedules fn at virtual time at under the extended ordering key
// (at, pushAt, src, seq). The sharded simulator uses it to merge event
// streams from several shards into one total order that matches what a
// single loop would have produced: pushAt is the virtual time the pushing
// context observed when it scheduled the event, src is a stable context
// index breaking cross-shard ties, and seq (the push order) preserves each
// context's own push order. In a serial simulation pushAt is nondecreasing
// in seq, so (at, pushAt, src, seq) with constant src orders identically to
// the legacy (at, seq) key.
func (q *Queue) PushKeyed(at, pushAt time.Duration, src int32, fn func()) Handle {
	k := prefix{at, pushAt, src}
	b := q.last - 1
	if b < 0 || q.buckets[b].key != k {
		b = q.bucketFor(k)
		q.last = b + 1
	}

	var s uint32
	if n := len(q.freeSlots); n > 0 {
		s = q.freeSlots[n-1]
		q.freeSlots = q.freeSlots[:n-1]
	} else {
		s = uint32(len(q.slots))
		q.slots = append(q.slots, slot{gen: 1})
	}
	sl := &q.slots[s]
	sl.fn, sl.b = fn, b
	h := Handle{slot: s, gen: sl.gen}

	bk := &q.buckets[b]
	if len(bk.items) == cap(bk.items) && bk.head > len(bk.items)/2 {
		// Mostly consumed: slide the pending tail down instead of
		// growing the slice.
		bk.items = bk.items[:copy(bk.items, bk.items[bk.head:])]
		bk.head = 0
	}
	bk.items = append(bk.items, item(h))
	bk.live++
	q.live++
	return h
}

// bucketFor returns the pending bucket for k, opening one if none exists.
func (q *Queue) bucketFor(k prefix) int32 {
	if b, ok := q.open[k]; ok {
		return b
	}
	var b int32
	if n := len(q.freeBuckets); n > 0 {
		b = q.freeBuckets[n-1]
		q.freeBuckets = q.freeBuckets[:n-1]
	} else {
		b = int32(len(q.buckets))
		q.buckets = append(q.buckets, bucket{})
	}
	if q.open == nil {
		q.open = make(map[prefix]int32)
	}
	q.open[k] = b
	q.buckets[b].key = k
	q.buckets[b].pos = len(q.heap)
	q.heap = append(q.heap, entry{key: k, b: b})
	q.up(len(q.heap) - 1)
	return b
}

// Cancel removes the event h names if it is still pending, dropping its
// callback at once. It returns false for a stale handle (the event fired,
// was cancelled, and its slot possibly reused since) — the guarantee
// timers rely on: after a true Cancel the callback never runs, and a stale
// Stop can never kill an unrelated event that reuses the slot.
func (q *Queue) Cancel(h Handle) bool {
	if int(h.slot) >= len(q.slots) || q.slots[h.slot].gen != h.gen {
		return false
	}
	q.release(h.slot)
	return true
}

// PeekAt returns the time of the earliest pending event, or ok=false if
// the queue is empty.
func (q *Queue) PeekAt() (at time.Duration, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].key.at, true
}

// PopFire removes the earliest event and returns its (time, callback),
// releasing its slot before the callback is exposed. It returns ok=false
// on an empty queue. This is the simulator's main-loop primitive: one
// event dispatch with zero allocation.
func (q *Queue) PopFire() (at time.Duration, fn func(), ok bool) {
	if len(q.heap) == 0 {
		return 0, nil, false
	}
	bk := &q.buckets[q.heap[0].b]
	at = bk.key.at
	// The head bucket holds a live event; skip the tombstones before it.
	for {
		it := bk.items[bk.head]
		bk.head++
		if sl := &q.slots[it.slot]; sl.gen == it.gen {
			fn = sl.fn
			q.release(it.slot)
			return at, fn, true
		}
	}
}

// release frees a pending event's slot: its callback is dropped and its
// generation advanced, so every outstanding handle and bucket item for it
// goes stale. A bucket left with no live event leaves the heap.
func (q *Queue) release(s uint32) {
	sl := &q.slots[s]
	b := sl.b
	sl.fn = nil
	sl.gen++
	q.freeSlots = append(q.freeSlots, s)
	q.live--
	bk := &q.buckets[b]
	bk.live--
	if bk.live == 0 {
		q.removeBucket(b)
	}
}

// removeBucket takes a bucket without live events out of the heap and the
// index and recycles it, keeping its item slice's capacity for the next
// prefix.
func (q *Queue) removeBucket(b int32) {
	bk := &q.buckets[b]
	delete(q.open, bk.key)
	bk.items = bk.items[:0]
	bk.head = 0
	q.freeBuckets = append(q.freeBuckets, b)
	if q.last == b+1 {
		q.last = 0
	}
	i, n := bk.pos, len(q.heap)-1
	if i != n {
		q.heap[i] = q.heap[n]
		q.buckets[q.heap[i].b].pos = i
	}
	q.heap = q.heap[:n]
	if i < n {
		q.down(i)
		q.up(i)
	}
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.buckets[q.heap[i].b].pos = i
	q.buckets[q.heap[j].b].pos = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].key.less(q.heap[parent].key) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && q.heap[right].key.less(q.heap[left].key) {
			smallest = right
		}
		if !q.heap[smallest].key.less(q.heap[i].key) {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
