//go:build !race

// Zero-allocation checks. The race detector perturbs allocation counts,
// so these run only in non-race builds.

package netsim

import (
	"testing"
	"time"

	"fragdb/internal/simtime"
)

func TestZeroAllocSend(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 2, WithLatency(UniformLatency(time.Millisecond, 3*time.Millisecond)))
	got := 0
	nw.SetHandler(1, func(from NodeID, payload any) { got++ })
	var payload any = "ping" // boxed once: the payload is the caller's
	nw.Send(0, 1, payload)
	s.Run()
	a := testing.AllocsPerRun(1000, func() {
		nw.Send(0, 1, payload)
		s.Run()
	})
	if a != 0 {
		t.Errorf("Send+delivery allocates %v per message, want 0", a)
	}
	if got < 1000 || nw.Stats().Delivered != uint64(got) {
		t.Fatalf("delivered %d (stats %d); the measured messages never arrived", got, nw.Stats().Delivered)
	}
}
