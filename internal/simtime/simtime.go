// Package simtime provides a deterministic discrete-event simulation
// kernel: a virtual clock, an event queue ordered by virtual time,
// cancellable timers, periodic timers and recycled fire-and-forget
// events.
//
// All experiments and tests in this repository run on virtual time so
// that every run is exactly reproducible. A Scheduler is single-threaded:
// events execute one at a time, in (time, insertion) order, on the
// goroutine that calls Run, Step, or RunUntil. Event handlers may freely
// schedule further events.
package simtime

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start
// of the simulation. The zero Time is the beginning of the simulation.
type Time time.Duration

// Duration re-exports time.Duration for scheduling arithmetic on
// virtual time.
type Duration = time.Duration

// String formats the virtual time like a duration offset, e.g. "150ms".
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the virtual time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Event is a scheduled callback. It is returned by At, After and Every
// so callers can cancel it before it fires. Events scheduled with Post
// are never handed out: the scheduler recycles them once they run.
type Event struct {
	when    Time
	seq     uint64 // tie-breaker: insertion order
	fn      func()
	run     Runner   // Post events; recycled after they run
	period  Duration // Every events; re-armed before each run
	index   int      // heap index; -1 once popped or cancelled
	cancled bool
}

// Runner is the body of a Post event. A caller that posts a pointer to
// a pooled record schedules it without allocating.
type Runner interface{ Run() }

// When reports the virtual time at which the event fires (or would have
// fired, if cancelled).
func (e *Event) When() Time { return e.when }

// eventQueue is a min-heap of events ordered by (when, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Scheduler is a deterministic discrete-event scheduler with a virtual
// clock. The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now     Time
	queue   eventQueue
	nextSeq uint64
	rng     *rand.Rand
	free    []*Event // recycled Post events

	// processed counts events that have been executed.
	processed uint64
}

// NewScheduler returns a scheduler whose clock reads zero and whose
// random source is seeded with seed. All randomness used by a
// simulation should flow through Rand so runs are reproducible.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending reports how many events are scheduled but not yet executed.
func (s *Scheduler) Pending() int { return len(s.queue) }

// At schedules fn to run at virtual time t. Scheduling in the past (or
// at the present instant) panics: discrete-event causality would be
// violated silently otherwise.
func (s *Scheduler) At(t Time, fn func()) *Event {
	e := &Event{fn: fn}
	s.push(e, t)
	return e
}

// push queues e to fire at t, after every event already queued for t.
func (s *Scheduler) push(e *Event, t Time) {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", t, s.now))
	}
	e.when, e.seq = t, s.nextSeq
	s.nextSeq++
	heap.Push(&s.queue, e)
}

// Post schedules r.Run at virtual time t, like At, but returns no
// handle: the event cannot be cancelled, and the scheduler reuses it
// for a later Post once it has run, so steady-state posting allocates
// nothing.
func (s *Scheduler) Post(t Time, r Runner) {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = new(Event)
	}
	e.run = r
	s.push(e, t)
}

// Every schedules fn to run every d of virtual time, first at d from
// now, until the returned event is cancelled (from outside or from fn
// itself). Each firing re-arms the event before fn runs, so the next
// tick takes the sequence number an After(d, ...) call made at the
// start of fn would: events fn schedules for the same instant run after
// it. d must be positive.
func (s *Scheduler) Every(d Duration, fn func()) *Event {
	if d <= 0 {
		panic(fmt.Sprintf("simtime: non-positive period %v", d))
	}
	e := s.At(s.now.Add(d), fn)
	e.period = d
	return e
}

// After schedules fn to run d after the current virtual time. A
// non-positive d schedules the event at the current instant (it runs
// after all events already queued for this instant).
func (s *Scheduler) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Cancel removes a scheduled event. It is a no-op if the event has
// already fired or been cancelled. It reports whether the event was
// actually cancelled by this call.
func (s *Scheduler) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.cancled {
		return false
	}
	e.cancled = true
	heap.Remove(&s.queue, e.index)
	return true
}

// NextEventTime returns the firing time of the earliest pending event.
// The second result is false when no events are pending. Real-time
// drivers use this to sleep exactly until the next due event instead of
// polling.
func (s *Scheduler) NextEventTime() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].when, true
}

// Step executes the single earliest pending event, advancing the clock
// to its firing time. It reports whether an event was executed.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	s.now = e.when
	s.processed++
	switch {
	case e.run != nil:
		r := e.run
		e.run = nil
		s.free = append(s.free, e)
		r.Run()
	case e.period > 0:
		s.push(e, e.when.Add(e.period))
		e.fn()
	default:
		e.fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with firing time <= t, then advances the
// clock to exactly t. Events scheduled beyond t remain pending.
func (s *Scheduler) RunUntil(t Time) {
	for len(s.queue) > 0 && s.queue[0].when <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor executes events for the next d of virtual time, as RunUntil.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }
