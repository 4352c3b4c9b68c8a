// Package rrmp is the maporder fixture: order-sensitive bodies inside
// range-over-map loops, plus the sanctioned collect-then-sort pattern and
// the deliberate-exception annotation.
package rrmp

import (
	"sort"

	"maporderfix/rng"
	"maporderfix/sim"
)

// DrawPerMember draws once per member in map order: the stream consumes
// values in randomized order, so the run depends on the hash seed.
func DrawPerMember(src *rng.Source, members map[int]bool) int {
	total := 0
	for id := range members {
		total += src.Intn(8) // want "rng draw \\(Intn\\) inside range over map"
		_ = id
	}
	return total
}

// SplitInLoop is clean even in map order: Split derives a child from the
// label alone, so call order cannot matter.
func SplitInLoop(src *rng.Source, members map[int]bool) {
	for id := range members {
		_ = src.Split(uint64(id))
	}
}

// ScheduleAll posts one event per member in map order: same-timestamp ties
// run in insertion order, so the schedule leaks the hash seed.
func ScheduleAll(eng *sim.Engine, members map[int]bool) {
	for id := range members {
		id := id
		eng.At(0, func() { _ = id }) // want "event posting \\(sim\\.At\\) inside range over map"
	}
}

// CollectUnsorted appends map keys to an escaping slice without sorting.
func CollectUnsorted(members map[int]bool) []int {
	var ids []int
	for id := range members {
		ids = append(ids, id) // want "append to ids"
	}
	return ids
}

// CollectSorted is the sanctioned fix, recognized automatically: collect,
// then sort in the same block.
func CollectSorted(members map[int]bool) []int {
	ids := make([]int, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// LocalAppend is clean: the slice is declared inside the loop body and
// dies with the iteration, so its order cannot escape.
func LocalAppend(members map[int][]int) int {
	n := 0
	for _, vs := range members {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// Allowed is deliberately order-insensitive and says so.
func Allowed(eng *sim.Engine, members map[int]bool) {
	for id := range members {
		id := id
		//lint:allow maporder -- events land at distinct times keyed by id, so enqueue order cannot matter
		eng.At(int64(id), func() { _ = id })
	}
}

// SliceRange is clean: only map iteration order is randomized.
func SliceRange(eng *sim.Engine, members []int) {
	for _, id := range members {
		id := id
		eng.At(0, func() { _ = id })
	}
}

// Detector carries observer hooks the way a failure detector does.
type Detector struct {
	cfg   Config
	peers map[int]bool
}

// Config holds the hooks.
type Config struct {
	OnSuspect func(n int)
}

// SweepMapOrder calls a struct-field callback per map entry: the observer
// (and whatever it records or schedules) sees peers in randomized order.
func (d *Detector) SweepMapOrder() {
	for n := range d.peers {
		d.cfg.OnSuspect(n) // want "call through func value \\(d\\.cfg\\.OnSuspect\\) inside range over map"
	}
}

// VisitAll calls a func parameter per map entry.
func VisitAll(members map[int]bool, visit func(int)) {
	for id := range members {
		visit(id) // want "call through func value \\(visit\\) inside range over map"
	}
}

// CallHandlers calls func values taken from the map itself.
func CallHandlers(handlers map[string]func()) {
	for _, h := range handlers {
		h() // want "call through func value \\(h\\) inside range over map"
	}
}

// SweepNodeOrder is the fix: walk a sorted slice, not the map.
func (d *Detector) SweepNodeOrder(order []int) {
	for _, n := range order {
		d.cfg.OnSuspect(n)
	}
}

// LocalFuncs is clean: a function literal called in place, a func value
// declared inside the body, a conversion, a builtin and a method call are
// not calls through an outside func value.
func LocalFuncs(members map[int][]int) int {
	n := 0
	for id, vs := range members {
		func() { n += len(vs) }()
		add := func(k int) { n += k }
		add(int(int64(id)))
		n += Counter(id).Double()
	}
	return n
}

// Counter is a value with a method.
type Counter int

// Double returns twice c.
func (c Counter) Double() int { return 2 * int(c) }
