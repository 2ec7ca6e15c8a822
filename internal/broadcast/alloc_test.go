//go:build !race

// Zero-allocation checks. The race detector perturbs allocation counts,
// so these run only in non-race builds.

package broadcast

import (
	"testing"
	"time"
)

// TestZeroAllocQuietGossip: once a 5-node cluster has converged, a
// gossip round (digests to every peer, their delivery and repair, and
// under compaction the watermark pass) allocates nothing.
func TestZeroAllocQuietGossip(t *testing.T) {
	const gossip = 20 * time.Millisecond
	for _, compaction := range []bool{false, true} {
		cfg := Config{GossipInterval: int64(gossip), Compaction: compaction, CompactRetain: 4}
		r := newRig(t, 5, cfg, 1)
		for i := 0; i < 20; i++ {
			for _, b := range r.bs {
				b.Send(i)
			}
		}
		r.sched.RunFor(time.Second)
		for i := range r.bs {
			if len(r.got[i]) != 100 {
				t.Fatalf("compaction=%v: node %d delivered %d of 100 before the idle phase", compaction, i, len(r.got[i]))
			}
		}
		if compaction && r.bs[0].Base(1) == 0 {
			t.Fatal("compaction on but no stream truncated: the compacted idle state is not exercised")
		}
		before := r.net.Stats().Delivered
		a := testing.AllocsPerRun(100, func() { r.sched.RunFor(gossip) })
		if a != 0 {
			t.Errorf("compaction=%v: a quiet gossip round allocates %v, want 0", compaction, a)
		}
		if d := r.net.Stats().Delivered - before; d < 100*5*4 {
			t.Fatalf("compaction=%v: only %d digests delivered in 101 rounds; the measured rounds did no gossip", compaction, d)
		}
		r.stopAll()
	}
}
