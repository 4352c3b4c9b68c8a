package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// widthRun is everything a lane-local script observes through the
// engine's exported methods.
type widthRun struct {
	logs                  [3][]string // per node, plus [2] for the driver
	pending               [3]int      // before the first run, after it, at the end
	firstNow              time.Duration
	ran                   [3]uint64 // RunUntil(12ms), RunUntil(30ms), Run
	quiesced              uint64
	processed             uint64
	stopFired, stopDriver [2]bool
}

// runWidthScript drives every exported method — After/At and Stop,
// PostFrom, RunUntil, Run, MustQuiesce, Pending, Processed, Now — through
// a two-node script whose events never cross nodes, so it is legal at any
// width and must observe the same values at every width.
func runWidthScript(t *testing.T, e *Sim) widthRun {
	t.Helper()
	var r widthRun
	for n := int32(0); n < 2; n++ {
		n := n
		c := e.Clock(n)
		logf := func(format string, args ...any) {
			r.logs[n] = append(r.logs[n], fmt.Sprintf("%v "+format, append([]any{c.Now()}, args...)...))
		}
		// Armed before the first run: a timer the node later stops.
		doomed := c.After(20*time.Millisecond, func() { logf("doomed fired") })
		var chain func(k int)
		chain = func(k int) {
			logf("chain %d", k)
			if k < 4 {
				c.After(time.Duration(k+1)*time.Millisecond, func() { chain(k + 1) })
			}
			if k == 2 {
				e.PostFrom(n, n, 0, func() { logf("post after chain 2") })
				r.stopFired[n] = doomed.Stop() && !doomed.Stop()
			}
		}
		c.After(time.Duration(10+n)*time.Millisecond, func() { chain(0) })
		// Armed mid-run on the node's own clock, then stopped.
		c.After(12*time.Millisecond, func() {
			late := c.After(time.Millisecond, func() { logf("late fired") })
			c.After(0, func() { logf("late stopped %v", late.Stop()) })
		})
	}
	e.At(15*time.Millisecond, func() { r.logs[2] = append(r.logs[2], fmt.Sprint(e.Now(), " driver")) })
	drop := e.After(16*time.Millisecond, func() { r.logs[2] = append(r.logs[2], "dropped driver fired") })
	r.stopDriver[0] = drop.Stop()
	r.stopDriver[1] = drop.Stop()

	r.pending[0] = e.Pending()
	r.ran[0] = e.RunUntil(12 * time.Millisecond)
	r.firstNow = e.Now()
	r.pending[1] = e.Pending()
	// One window at width 2: both lanes stop their setup-armed timers on
	// the global queue concurrently.
	r.ran[1] = e.RunUntil(30 * time.Millisecond)
	r.ran[2] = e.Run()

	// A bounded cascade MustQuiesce drains within its limit.
	for n := int32(0); n < 2; n++ {
		c := e.Clock(n)
		var hop func(k int)
		hop = func(k int) {
			if k < 10 {
				c.After(time.Millisecond, func() { hop(k + 1) })
			}
		}
		e.PostFrom(n, n, time.Millisecond, func() { hop(0) })
	}
	r.quiesced = e.MustQuiesce(1000)
	r.processed = e.Processed()
	r.pending[2] = e.Pending()
	return r
}

func widthEngine(t *testing.T, shards int) *Sim {
	t.Helper()
	nodeShard := []int32{0, 0}
	if shards > 1 {
		nodeShard = []int32{0, 1}
	}
	e, err := NewSharded(shards, nodeShard, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != shards {
		t.Fatalf("NewSharded(%d) built %d lanes", shards, e.Shards())
	}
	return e
}

// TestEveryMethodAgreesAcrossWidths runs the lane-local script at width 1
// (both New and NewSharded(1, …)) and width 2 and requires identical
// observations, so no exported method is width-only.
func TestEveryMethodAgreesAcrossWidths(t *testing.T) {
	want := runWidthScript(t, New())
	if want.firstNow != 12*time.Millisecond || want.pending[1] == 0 || want.pending[2] != 0 {
		t.Fatalf("width 1: Now after RunUntil(12ms) = %v, Pending = %v", want.firstNow, want.pending)
	}
	if want.stopFired != [2]bool{true, true} || want.stopDriver != [2]bool{true, false} {
		t.Fatalf("width 1: Stop results %v / %v", want.stopFired, want.stopDriver)
	}
	if want.quiesced != 22 || want.processed != want.ran[0]+want.ran[1]+want.ran[2]+want.quiesced {
		t.Fatalf("width 1: MustQuiesce ran %d, Processed %d", want.quiesced, want.processed)
	}
	for _, shards := range []int{1, 2} {
		got := runWidthScript(t, widthEngine(t, shards))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d diverges from New():\n got  %+v\n want %+v", shards, got, want)
		}
	}
}

// TestMustQuiescePanicsAtEveryWidth: a runaway lane-local chain — with a
// positive delay, or a zero-delay one that never leaves its window — must
// panic on the driving goroutine at every width rather than hang.
func TestMustQuiescePanicsAtEveryWidth(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, d := range []time.Duration{time.Millisecond, 0} {
			e := widthEngine(t, shards)
			c := e.Clock(1)
			var loop func()
			loop = func() { c.After(d, loop) }
			e.PostFrom(1, 1, time.Millisecond, loop)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("width %d, delay %v: MustQuiesce did not panic", shards, d)
					}
				}()
				e.MustQuiesce(100)
			}()
		}
	}
}
