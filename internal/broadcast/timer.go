package broadcast

import (
	"sync"
	"time"

	"fragdb/internal/simtime"
)

// SchedulerTimer adapts a simtime.Scheduler to the Timer interface for
// deterministic simulation runs. Delays are virtual nanoseconds.
type SchedulerTimer struct {
	S *simtime.Scheduler
}

// AfterFunc schedules fn after d virtual nanoseconds.
func (t SchedulerTimer) AfterFunc(d int64, fn func()) (cancel func()) {
	e := t.S.After(simtime.Duration(d), fn)
	return func() { t.S.Cancel(e) }
}

// Every runs fn every d virtual nanoseconds on one periodic scheduler
// event, which re-arms itself before fn runs.
func (t SchedulerTimer) Every(d int64, fn func()) (cancel func()) {
	e := t.S.Every(simtime.Duration(d), fn)
	return func() { t.S.Cancel(e) }
}

// WallTimer is a Timer backed by the real clock, for use with the
// goroutine-based transport of package rtnet. Delays are real
// nanoseconds.
type WallTimer struct{}

// AfterFunc schedules fn after d real nanoseconds.
func (WallTimer) AfterFunc(d int64, fn func()) (cancel func()) {
	//halint:allow nowalltime -- WallTimer is the one sanctioned wall-clock adapter; rtnet-backed runs opt into it explicitly, simulations use SchedulerTimer
	tm := time.AfterFunc(time.Duration(d), fn)
	return func() { tm.Stop() }
}

// Every runs fn every d real nanoseconds, re-arming through AfterFunc
// before each run.
func (w WallTimer) Every(d int64, fn func()) (cancel func()) {
	var (
		mu      sync.Mutex
		stop    func()
		stopped bool
		tick    func()
	)
	tick = func() {
		mu.Lock()
		if stopped {
			mu.Unlock()
			return
		}
		stop = w.AfterFunc(d, tick)
		mu.Unlock()
		fn()
	}
	mu.Lock()
	stop = w.AfterFunc(d, tick)
	mu.Unlock()
	return func() {
		mu.Lock()
		stopped = true
		s := stop
		mu.Unlock()
		s()
	}
}
