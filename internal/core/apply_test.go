package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/lock"
	"fragdb/internal/txn"
)

// TestApplyNeverWaitsOnRefusedRequest is the apply-wedge regression.
// The quasi's owner already holds G0/a; a lock owner X that wounds
// cannot reach (neither a local transaction nor a remote reader) holds
// G0/b and queues on G0/a. The quasi's request for G0/b closes a cycle,
// so the lock manager refuses it even after woundHolders — and a
// refused request is never queued. Once X releases, the quasi must
// still install on both drivers instead of waiting for a grant that
// never comes.
func TestApplyNeverWaitsOnRefusedRequest(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cl := shardedCluster(t, shards, 5)
			defer cl.Shutdown()
			n := cl.Node(1)
			q := txn.Quasi{
				Txn: txn.ID{Origin: 0, Seq: 1000}, Fragment: "G0",
				Pos: txn.FragPos{Seq: 1}, Home: 0, Stamp: cl.Now(),
				Writes: []txn.WriteOp{{Object: "G0/a", Value: int64(1)}, {Object: "G0/b", Value: int64(2)}},
			}
			x := txn.ID{Origin: 3, Seq: 99}
			for _, req := range []struct {
				id      txn.ID
				o       fragments.ObjectID
				granted bool
			}{{q.Txn, "G0/a", true}, {x, "G0/b", true}, {x, "G0/a", false}} {
				granted, err := n.locks.Acquire(req.id, req.o, lock.Exclusive)
				if err != nil || granted != req.granted {
					t.Fatalf("seed lock %v on %s: granted=%v err=%v", req.id, req.o, granted, err)
				}
			}
			n.ingestQuasi(q)
			// Past the shard driver's pickup jitter, so both drivers have
			// issued the refused request before X lets go.
			cl.RunFor(time.Millisecond)
			if got := n.StreamPos("G0"); got != (txn.FragPos{}) {
				t.Fatalf("StreamPos(G0) = %v before X released", got)
			}
			n.onGrants(n.locks.Release(x))
			cl.RunFor(time.Second)
			if got := n.StreamPos("G0"); got != q.Pos {
				t.Fatalf("StreamPos(G0) = %v, want %v (%d quasi waiters left)", got, q.Pos, len(n.quasiWaiters))
			}
			if v, _ := n.Store().Get("G0/b"); v != int64(2) {
				t.Errorf("G0/b = %v, want 2", v)
			}
			if held := n.locks.NumHeld(q.Txn); held != 0 {
				t.Errorf("quasi owner still holds %d locks after install", held)
			}
		})
	}
}

// applyFrag names fragment i of the apply benchmark and its two objects.
func applyFrag(i int) (fragments.FragmentID, fragments.ObjectID, fragments.ObjectID) {
	f := fragments.FragmentID(fmt.Sprintf("B%02d", i))
	return f, fragments.ObjectID(string(f) + "/a"), fragments.ObjectID(string(f) + "/b")
}

// applyStreams generates per-fragment quasi streams homed at node 0:
// fragment i gets its share of n quasis (uniform, or skewed 80/20 onto
// the first four fragments), each writing the fragment's "a" object
// with its sequence number and its "b" object with a constant.
func applyStreams(nfrags, n int, skewed bool, rng *rand.Rand) [][]txn.Quasi {
	streams := make([][]txn.Quasi, nfrags)
	for i := 0; i < n; i++ {
		fi := rng.Intn(nfrags)
		if skewed && rng.Intn(5) != 0 {
			fi = rng.Intn(4)
		}
		seq := uint64(len(streams[fi]) + 1)
		streams[fi] = append(streams[fi], txn.Quasi{
			Txn: txn.ID{Origin: 0, Seq: uint64(i + 1)},
			Pos: txn.FragPos{Seq: seq}, Home: 0,
			Writes: []txn.WriteOp{{Value: int64(seq)}, {Value: int64(-1)}},
		})
	}
	// One set of name strings per fragment, shared by all its quasis.
	for fi, s := range streams {
		f, a, b := applyFrag(fi)
		for j := range s {
			s[j].Fragment = f
			s[j].Writes[0].Object, s[j].Writes[1].Object = a, b
		}
	}
	return streams
}

// chunkRuns slices each fragment stream into contiguous runs of at
// most size (the shape of delivered DataBatches) and interleaves the
// runs across fragments at random, popping each fragment's runs
// front-first so every stream arrives in order.
func chunkRuns(streams [][]txn.Quasi, size int, rng *rand.Rand) [][]txn.Quasi {
	perFrag := make([][][]txn.Quasi, len(streams))
	total := 0
	for i, s := range streams {
		for len(s) > 0 {
			k := min(size, len(s))
			perFrag[i] = append(perFrag[i], s[:k])
			s = s[k:]
			total++
		}
	}
	runs := make([][]txn.Quasi, 0, total)
	for len(runs) < total {
		i := rng.Intn(len(perFrag))
		if len(perFrag[i]) == 0 {
			continue
		}
		runs = append(runs, perFrag[i][0])
		perFrag[i] = perFrag[i][1:]
	}
	return runs
}

// BenchmarkApplySaturation measures the engine's apply path — the
// drivers, acquire and install of apply.go — at node 1 of a 2-node
// cluster whose 64 fragments are all homed at node 0. One op is one
// installed quasi-transaction. Quasis arrive as delivery bursts of
// four same-fragment runs of up to 16 (uniform over the fragments, or
// skewed 80/20 onto four of them), and the scheduler is stepped until
// each burst is installed. shards=1 is the inline driver; shards=K the
// shard driver, each burst inside BeginBurst/EndBurst so a run takes
// one combined lock acquisition. The /registry variants turn on
// LabeledMetrics; CI compares each pair against the registry-overhead
// budget. Besides wall ns/op it reports virt-µs/quasi, the virtual
// time per installed quasi: the shard driver's gain is overlapping
// ApplyLatency windows in virtual time, not wall throughput (the
// inline driver installs within the delivering event, in zero virtual
// time).
func BenchmarkApplySaturation(b *testing.B) {
	for _, wl := range []struct {
		name   string
		skewed bool
	}{{"disjoint", false}, {"skewed", true}} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", wl.name, shards), func(b *testing.B) {
				benchApply(b, wl.skewed, shards, false)
			})
			b.Run(fmt.Sprintf("%s/shards=%d/registry", wl.name, shards), func(b *testing.B) {
				benchApply(b, wl.skewed, shards, true)
			})
		}
	}
}

func benchApply(b *testing.B, skewed bool, shards int, labeled bool) {
	const nfrags, runSize, burstRuns = 64, 16, 4
	cl := NewCluster(Config{
		N: 2, Option: UnrestrictedReads, Seed: 1,
		ApplyShards: shards, LabeledMetrics: labeled,
	})
	for i := 0; i < nfrags; i++ {
		f, oa, ob := applyFrag(i)
		if err := cl.Catalog().AddFragment(f, oa, ob); err != nil {
			b.Fatal(err)
		}
		cl.Tokens().Assign(f, fragments.NodeAgent(0), 0)
	}
	if err := cl.Start(); err != nil {
		b.Fatal(err)
	}
	defer cl.Shutdown()
	streams := applyStreams(nfrags, b.N, skewed, rand.New(rand.NewSource(11)))
	runs := chunkRuns(streams, runSize, rand.New(rand.NewSource(12)))
	n := cl.Node(1)
	sink := nodeBurstSink{n}
	applied := &cl.Stats().QuasiApplied
	start := cl.Now()
	// Collect the previous cell's cluster now, so its garbage is not
	// charged to this cell's timer.
	runtime.GC()
	b.ResetTimer()
	for len(runs) > 0 {
		burst := runs[:min(burstRuns, len(runs))]
		runs = runs[len(burst):]
		want := applied.Load()
		if shards > 1 {
			sink.BeginBurst()
		}
		for _, run := range burst {
			for _, q := range run {
				q.Stamp = cl.Now()
				n.ingestQuasi(q)
				want++
			}
		}
		if shards > 1 {
			sink.EndBurst()
		}
		for applied.Load() < want {
			if !cl.Sched().Step() {
				b.Fatalf("scheduler ran dry with %d of %d quasis installed", applied.Load(), want)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cl.Now().Sub(start))/1e3/float64(b.N), "virt-µs/quasi")
}
