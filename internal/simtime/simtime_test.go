package simtime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(30*Time(time.Millisecond), func() { got = append(got, 3) })
	s.At(10*Time(time.Millisecond), func() { got = append(got, 1) })
	s.At(20*Time(time.Millisecond), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Time(time.Millisecond) {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Time(time.Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of insertion order: %v", got)
		}
	}
}

func TestAfterRelativeToNow(t *testing.T) {
	s := NewScheduler(1)
	var fired Time
	s.After(10*time.Millisecond, func() {
		s.After(15*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 25*Time(time.Millisecond) {
		t.Errorf("nested After fired at %v, want 25ms", fired)
	}
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Error("event with negative delay never ran")
	}
	if s.Now() != 0 {
		t.Errorf("clock moved to %v for clamped event", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5*Time(time.Millisecond), func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	e := s.After(time.Millisecond, func() { ran = true })
	if !s.Cancel(e) {
		t.Error("first Cancel returned false")
	}
	if s.Cancel(e) {
		t.Error("second Cancel returned true")
	}
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestCancelNilAndFired(t *testing.T) {
	s := NewScheduler(1)
	if s.Cancel(nil) {
		t.Error("Cancel(nil) returned true")
	}
	e := s.After(0, func() {})
	s.Run()
	if s.Cancel(e) {
		t.Error("Cancel of fired event returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	var events []*Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.At(Time(i)*Time(time.Millisecond), func() { got = append(got, i) }))
	}
	// Cancel all odd events.
	for i := 1; i < 20; i += 2 {
		s.Cancel(events[i])
	}
	s.Run()
	for _, v := range got {
		if v%2 != 0 {
			t.Fatalf("cancelled event %d ran", v)
		}
	}
	if len(got) != 10 {
		t.Fatalf("got %d events, want 10", len(got))
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(Time(time.Second), func() { got = append(got, 1) })
	s.At(Time(3*time.Second), func() { got = append(got, 2) })
	s.RunUntil(Time(2 * time.Second))
	if len(got) != 1 {
		t.Fatalf("events run = %d, want 1", len(got))
	}
	if s.Now() != Time(2*time.Second) {
		t.Errorf("Now = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(got) != 2 {
		t.Errorf("after Run, events = %d, want 2", len(got))
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := NewScheduler(1)
	s.RunFor(time.Second)
	s.RunFor(time.Second)
	if s.Now() != Time(2*time.Second) {
		t.Errorf("Now = %v, want 2s", s.Now())
	}
}

func TestProcessedAndPendingCounts(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 5; i++ {
		s.After(Duration(i)*time.Millisecond, func() {})
	}
	if s.Pending() != 5 {
		t.Errorf("Pending = %d, want 5", s.Pending())
	}
	s.Run()
	if s.Processed() != 5 {
		t.Errorf("Processed = %d, want 5", s.Processed())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after Run = %d, want 0", s.Pending())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewScheduler(42), NewScheduler(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

// Property: for any set of scheduled delays, events fire in sorted
// order of firing time, with insertion order breaking ties.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := NewScheduler(7)
		type rec struct {
			when Time
			seq  int
		}
		var fired []rec
		for i, d := range delays {
			when := Time(d) * Time(time.Microsecond)
			i := i
			s.At(when, func() { fired = append(fired, rec{when, i}) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].when != fired[j].when {
				return fired[i].when < fired[j].when
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: RunUntil never executes an event scheduled after the bound.
func TestPropertyRunUntilBound(t *testing.T) {
	f := func(delays []uint16, bound uint16) bool {
		s := NewScheduler(3)
		late := 0
		for _, d := range delays {
			when := Time(d) * Time(time.Microsecond)
			if d > bound {
				late++
			}
			s.At(when, func() {})
		}
		s.RunUntil(Time(bound) * Time(time.Microsecond))
		return s.Pending() == late
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestTimeStringAndArith(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.String() != "1.5s" {
		t.Errorf("String = %q, want 1.5s", tm.String())
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Error("Add wrong")
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Error("Sub wrong")
	}
}

func TestPostRunsInOrderAndRecycles(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(2, func() { got = append(got, 2) })
	s.Post(1, runFunc(func() { got = append(got, 1) }))
	s.Post(2, runFunc(func() { got = append(got, 3) }))
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
	if len(s.free) != 2 {
		t.Fatalf("free list holds %d events after two Posts ran, want 2", len(s.free))
	}
	// The At event's handle is never recycled: cancelling it after it
	// fired stays a no-op and touches no Post event.
	e := s.At(5, func() {})
	s.Post(5, runFunc(func() {}))
	s.Run()
	if s.Cancel(e) {
		t.Fatal("Cancel reported success on a fired At event")
	}
	for _, f := range s.free {
		if f == e {
			t.Fatal("an At event was put on the free list")
		}
	}
}

// runFunc adapts a closure to Runner for tests.
type runFunc func()

func (f runFunc) Run() { f() }

func TestEveryCancelledFromOutside(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	e := s.Every(10*time.Millisecond, func() { fired++ })
	s.RunFor(35 * time.Millisecond)
	if fired != 3 {
		t.Fatalf("fired %d times in 35ms at a 10ms period, want 3", fired)
	}
	if !s.Cancel(e) {
		t.Fatal("Cancel of an armed periodic event reported false")
	}
	s.RunFor(time.Second)
	if fired != 3 || s.Pending() != 0 {
		t.Fatalf("after Cancel: fired %d, pending %d; want 3, 0", fired, s.Pending())
	}
}

func TestEveryCancelledFromItsBody(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	var e *Event
	e = s.Every(10*time.Millisecond, func() {
		fired++
		if fired == 2 {
			if !s.Cancel(e) {
				t.Error("Cancel from the body reported false")
			}
		}
	})
	s.RunFor(time.Second)
	if fired != 2 || s.Pending() != 0 {
		t.Fatalf("fired %d, pending %d; want 2, 0", fired, s.Pending())
	}
}

// TestEveryOrdersLikeAfterAtBodyStart checks the re-arm contract: a
// periodic tick is ordered exactly as an After(d) call made first thing
// in the body of a self-rescheduling event would be, against events
// the body schedules and events queued for the same instants.
func TestEveryOrdersLikeAfterAtBodyStart(t *testing.T) {
	const d = 10 * time.Millisecond
	trace := func(periodic bool) []string {
		s := NewScheduler(1)
		var log []string
		n := 0
		body := func() {
			n++
			log = append(log, fmt.Sprintf("tick%d@%v", n, s.Now()))
			// Same instant as the next tick, scheduled after the re-arm.
			s.After(d, func() { log = append(log, fmt.Sprintf("after%d@%v", n, s.Now())) })
			s.After(0, func() { log = append(log, fmt.Sprintf("now%d@%v", n, s.Now())) })
		}
		// Queued before the periodic starts, for instants ticks land on.
		for i := 1; i <= 4; i++ {
			s.At(Time(time.Duration(i)*d), func() { log = append(log, fmt.Sprintf("pre@%v", s.Now())) })
		}
		if periodic {
			s.Every(d, body)
		} else {
			var rearm func()
			rearm = func() {
				s.After(d, rearm)
				body()
			}
			s.After(d, rearm)
		}
		s.RunUntil(Time(4 * d))
		return log
	}
	want, got := trace(false), trace(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("periodic order\n got %v\nwant %v", got, want)
	}
	if len(got) < 12 {
		t.Fatalf("trace too short to test ordering: %v", got)
	}
}
