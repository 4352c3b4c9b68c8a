package sim

import (
	"testing"
	"time"
)

func TestClockAdvancesToEventTime(t *testing.T) {
	s := New()
	var at time.Duration
	s.After(25*time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != 25*time.Millisecond {
		t.Fatalf("callback saw t=%v, want 25ms", at)
	}
	if s.Now() != 25*time.Millisecond {
		t.Fatalf("final clock %v, want 25ms", s.Now())
	}
}

func TestNegativeDelayFiresNow(t *testing.T) {
	s := New()
	s.RunUntil(10 * time.Millisecond)
	var at time.Duration = -1
	s.After(-5*time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past-scheduled event fired at %v, want clamped to 10ms", at)
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	tm := s.After(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStopAfterFire(t *testing.T) {
	s := New()
	tm := s.After(1, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	var fired []int
	s.After(10, func() { fired = append(fired, 1) })
	s.After(20, func() { fired = append(fired, 2) })
	s.After(30, func() { fired = append(fired, 3) })
	s.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at t<=20 only", fired)
	}
	if s.Now() != 20 {
		t.Fatalf("clock %v after RunUntil(20)", s.Now())
	}
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v after Run", fired)
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunFor(time.Second)
	if s.Now() != time.Second {
		t.Fatalf("idle RunFor left clock at %v", s.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	var order []string
	s.After(10, func() {
		order = append(order, "a")
		s.After(5, func() { order = append(order, "b") })
		s.After(0, func() { order = append(order, "a2") })
	})
	s.After(12, func() { order = append(order, "c") })
	s.Run()
	want := []string{"a", "a2", "c", "b"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		s := New()
		var got []int
		for i := 0; i < 50; i++ {
			i := i
			s.After(time.Duration(i%7)*time.Millisecond, func() { got = append(got, i) })
		}
		s.Run()
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two identical runs diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestMustQuiescePanicsOnRunaway(t *testing.T) {
	s := New()
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("MustQuiesce did not panic on unbounded event chain")
		}
	}()
	s.MustQuiesce(1000)
}

func TestReentrantRunPanics(t *testing.T) {
	s := New()
	var recovered any
	s.After(1, func() {
		defer func() { recovered = recover() }()
		s.Run()
	})
	s.Run()
	if recovered == nil {
		t.Fatal("reentrant Run did not panic")
	}
}

func TestProcessedAndPending(t *testing.T) {
	s := New()
	s.After(1, func() {})
	s.After(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.Run()
	if s.Processed() != 2 || s.Pending() != 0 {
		t.Fatalf("Processed = %d, Pending = %d", s.Processed(), s.Pending())
	}
}

func TestAtSchedulesAbsolute(t *testing.T) {
	s := New()
	var at time.Duration
	s.After(10, func() {
		s.At(40, func() { at = s.Now() })
	})
	s.Run()
	if at != 40 {
		t.Fatalf("At(40) fired at %v", at)
	}
}

func BenchmarkTimerChurn(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		tm := s.After(time.Duration(i%100), fn)
		if i%2 == 0 {
			tm.Stop()
		}
		if s.Pending() > 1024 {
			s.Run()
		}
	}
}
