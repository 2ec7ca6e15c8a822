//go:build !race

// Zero-allocation checks. The race detector perturbs allocation counts,
// so these run only in non-race builds.

package lock

import (
	"fmt"
	"runtime"
	"testing"
)

// TestZeroAllocRelease: releasing a transaction's locks when nobody is
// queued behind them (so nothing is granted) allocates nothing, on the
// one-shard and the sharded manager.
func TestZeroAllocRelease(t *testing.T) {
	for _, m := range []*Manager{NewManager(), NewSharded(4, nil)} {
		objs := make([]string, 5)
		for i := range objs {
			objs[i] = fmt.Sprintf("F%d.o%d", i%2, i)
		}
		var before, after runtime.MemStats
		var mallocs uint64
		const runs = 200
		for n := uint64(1); n <= runs; n++ {
			for i, o := range objs {
				mode := Exclusive
				if i%2 == 1 {
					mode = Shared
				}
				mustGrant(t, m, id(n), o, mode)
			}
			runtime.ReadMemStats(&before)
			grants := m.Release(id(n))
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			if len(grants) != 0 || m.NumHeld(id(n)) != 0 {
				t.Fatalf("Release granted %v, left %d held", grants, m.NumHeld(id(n)))
			}
		}
		if mallocs != 0 {
			t.Errorf("%d shards: Release allocates %.2f per call, want 0", m.ShardCount(), float64(mallocs)/runs)
		}
	}
}
