//go:build !race

// Zero-allocation checks. The race detector perturbs allocation counts,
// so these run only in non-race builds.

package simtime

import (
	"testing"
	"time"
)

// tick is a Runner that counts its runs.
type tick struct{ n int }

func (t *tick) Run() { t.n++ }

func TestZeroAllocPost(t *testing.T) {
	s := NewScheduler(1)
	r := &tick{}
	// Warm the free list and the queue's backing array.
	s.Post(s.Now(), r)
	s.Step()
	a := testing.AllocsPerRun(1000, func() {
		s.Post(s.Now().Add(time.Millisecond), r)
		s.Step()
	})
	if a != 0 {
		t.Errorf("Post+Step allocates %v per event, want 0", a)
	}
	if r.n < 1000 {
		t.Fatalf("runner ran %d times; the measured events never fired", r.n)
	}
}

func TestZeroAllocEvery(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	s.Every(time.Millisecond, func() { fired++ })
	s.Step()
	a := testing.AllocsPerRun(1000, func() { s.Step() })
	if a != 0 {
		t.Errorf("a periodic tick allocates %v, want 0", a)
	}
	if fired < 1000 {
		t.Fatalf("periodic event fired %d times", fired)
	}
}
