package eventq

import (
	"testing"
	"time"

	"repro/internal/rng"
)

// Benchmarks for the simulator's hot path: every packet delivery and every
// protocol timer is one Push (and often one Cancel) on this queue, so sweep
// throughput is bounded by these operations. BENCH_sweep.json tracks the
// macro numbers; these isolate the queue itself.

// BenchmarkSteadyStatePushPopFire measures steady-state traffic with
// distinct timestamps, the queue's worst case (one bucket per event): a
// queue holding 1024 random-time events pushes one more and pops the
// earliest, per op (eventq_test.go's BenchmarkPushPop uses sequential
// times).
func BenchmarkSteadyStatePushPopFire(b *testing.B) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
		q.PopFire()
	}
}

// BenchmarkFanOutPushPopFire measures the simulator's common case: pushes
// arrive in runs sharing one timestamp (a multicast's receivers under one
// latency), over a standing queue of 64 such runs of 256 events each.
func BenchmarkFanOutPushPopFire(b *testing.B) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	at := time.Duration(0)
	for i := 0; i < 64*256; i++ {
		if i%256 == 0 {
			at = time.Duration(r.Intn(1_000_000))
		}
		q.Push(at, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			at = time.Duration(r.Intn(1_000_000))
		}
		q.Push(at, fn)
		q.PopFire()
	}
}

// BenchmarkTimerChurnCancel is the cancel path protocol timers use: push a
// timer event, cancel it through its generation-checked handle, and let
// the freed slot serve the next push.
func BenchmarkTimerChurnCancel(b *testing.B) {
	r := rng.New(1)
	var q Queue
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Push(time.Duration(r.Intn(1_000_000)), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.Cancel(q.Push(time.Duration(r.Intn(1_000_000)), fn)) {
			b.Fatal("failed to cancel a live event")
		}
	}
}

// BenchmarkDrain measures bulk ordered consumption: push 4096 random-time
// events, pop all of them in order.
func BenchmarkDrain(b *testing.B) {
	r := rng.New(1)
	fn := func() {}
	times := make([]time.Duration, 4096)
	for i := range times {
		times[i] = time.Duration(r.Intn(1_000_000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q Queue
		for _, at := range times {
			q.Push(at, fn)
		}
		for _, _, ok := q.PopFire(); ok; _, _, ok = q.PopFire() {
		}
	}
}
