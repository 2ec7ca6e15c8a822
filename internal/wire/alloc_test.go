//go:build !race

// Zero-allocation checks. The race detector perturbs allocation counts,
// so these run only in non-race builds.

package wire

import (
	"testing"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
)

func TestZeroAllocDigestEncode(t *testing.T) {
	d := broadcast.Digest{Have: map[netsim.NodeID]uint64{4: 1, 0: 9, 2: 7, 1: 3, 3: 5}}
	buf := make([]byte, 0, 256)
	if a := testing.AllocsPerRun(1000, func() { buf = appendDigest(buf[:0], d) }); a != 0 {
		t.Errorf("appendDigest allocates %v for a 5-stream digest, want 0", a)
	}
	if len(buf) == 0 {
		t.Fatal("appendDigest wrote nothing")
	}
}
