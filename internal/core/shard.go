package core

import (
	"math/rand"
	"sort"

	"fragdb/internal/fragments"
	"fragdb/internal/lock"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// The shard driver of the apply engine (apply.go), enabled by
// Config.ApplyShards > 1, replaces the inline drain with per-shard
// apply workers. Every fragment hashes to one shard (the same mapping
// the sharded lock manager uses, so a shard worker's lock acquisitions
// stay inside its own lock shard), and each shard installs the
// contiguous pending runs of its fragments independently: runs of
// disjoint fragments overlap in virtual time, each run paying one
// combined lock acquisition and one ApplyLatency installation window.
//
// Determinism contract: everything below runs on the node's
// single-threaded scheduler (netsim's, or the rtnet.Loop goroutine in
// deployment). "Parallelism" is overlap of ApplyLatency windows in
// virtual time, sequenced by the scheduler's (time, seq) order; the
// only randomness is the pickup jitter drawn from a dedicated per-node
// rand.Rand seeded from Config.Seed, so a given seed always yields the
// same interleaving — chaos repros stay byte-identical. Within one
// fragment, runs never overlap (streamState.applying is the
// per-fragment latch), preserving the paper's per-stream total order;
// across fragments no ordering is promised, exactly the independence
// Section 4 grants disjoint fragments.

// applyShardState is one apply shard's dispatch slot: the fragments
// with a dispatched run waiting for the shard, and whether the shard
// is currently occupied (from pickup through installation).
type applyShardState struct {
	queue []fragments.FragmentID
	busy  bool
}

// applyState is a node's sharded-apply scheduler. Crash recovery
// replaces the whole value, so scheduled closures guard on pointer
// identity (n.apply == as) to die with the incarnation that made them.
type applyState struct {
	shards []applyShardState
	// rng staggers shard pickups. A dedicated generator — not the
	// scheduler's — so enabling sharding does not perturb the draw
	// sequence of existing seeded scenarios (loss, latency).
	rng *rand.Rand
}

func newApplyState(cl *Cluster, id netsim.NodeID) *applyState {
	return &applyState{
		shards: make([]applyShardState, cl.cfg.ApplyShards),
		rng:    rand.New(rand.NewSource(cl.cfg.Seed ^ (int64(id)+1)*0x1e3779b97f4a7c15)),
	}
}

// ShardOfFragment maps a fragment to its apply (and lock) shard index
// — 0 whenever the sharded apply path is disabled.
func (cl *Cluster) ShardOfFragment(f fragments.FragmentID) int {
	return lock.HashShard(string(f), cl.cfg.ApplyShards)
}

// dispatchShard is the sharded replacement for the serial drain loop:
// if fragment f has its next-in-order quasi-transaction pending, latch
// the stream and queue the fragment on its shard. An idle shard
// schedules its pickup after a seeded jitter so concurrently dispatched
// shards interleave reproducibly rather than in enqueue order.
func (n *Node) dispatchShard(f fragments.FragmentID, st *streamState) {
	if st.applying {
		return
	}
	if n.batchFrags != nil {
		// Mid-burst: note the fragment; the burst's end dispatches it
		// once, after every payload of the batch has been ingested, so
		// the whole batch rides one lock acquisition per fragment.
		n.batchFrags[f] = st
		return
	}
	if _, ok := st.pending[st.last.Next()]; !ok {
		return
	}
	st.applying = true
	as := n.apply
	si := n.cl.ShardOfFragment(f)
	s := &as.shards[si]
	s.queue = append(s.queue, f)
	if s.busy {
		return
	}
	s.busy = true
	jitter := simtime.Duration(as.rng.Int63n(int64(n.cl.cfg.ApplyLatency)/2 + 1))
	n.cl.sched.After(jitter, func() {
		if n.apply != as {
			return // crash/restart replaced this scheduler
		}
		n.shardStep(as, si)
	})
}

// shardStep runs one shard's dispatch loop: pop the next queued
// fragment, re-collect its contiguous pending run (the pending set may
// have shifted since dispatch — snapshot merges, epoch switches), and
// acquire the run's combined write set in one pass. A fully granted
// run installs after ApplyLatency with the shard held busy; a run
// parked on locks frees the shard for its other fragments and installs
// later via onGrants.
func (n *Node) shardStep(as *applyState, si int) {
	s := &as.shards[si]
	for {
		if len(s.queue) == 0 {
			s.busy = false
			return
		}
		f := s.queue[0]
		s.queue = s.queue[1:]
		st := n.stream(f)
		run := collectRun(st)
		if len(run) == 0 {
			// The dispatched work was consumed by a snapshot merge or
			// dropped by an epoch switch while queued.
			st.applying = false
			n.notifyStreamWaiters(st)
			continue
		}
		busy := 0
		for i := range as.shards {
			if as.shards[i].busy {
				busy++
			}
		}
		n.note(trace.Event{Kind: trace.KApplyBusy, Arg: int64(busy)})
		n.note(trace.Event{Kind: trace.KShardApply, Txn: run[0].Txn,
			Frag: f, Pos: run[0].Pos, Seq: uint64(si), Arg: int64(len(run))})
		w := &quasiWaiter{f: f, st: st, ordered: true, run: run,
			shard: as, shardIdx: si, slotHeld: true}
		if n.acquireQuasi(w) {
			n.quasiGranted(w)
			return
		}
		w.slotHeld = false
	}
}

// collectRun pulls the longest contiguous pending run starting at the
// stream's next position. The quasis stay in st.pending until actually
// installed, so snapshot capture keeps shipping them while in flight.
func collectRun(st *streamState) []txn.Quasi {
	var run []txn.Quasi
	next := st.last.Next()
	for {
		q, ok := st.pending[next]
		if !ok {
			return run
		}
		run = append(run, q)
		next = next.Next()
	}
}

// nodeBurstSink adapts a node to broadcast.BurstSink: during a
// multi-delivery drain (a DataBatch arrival, a repair suffix) shard
// dispatch is deferred so each fragment touched by the batch is
// dispatched — and takes its locks — exactly once.
type nodeBurstSink struct{ n *Node }

func (s nodeBurstSink) BeginBurst() {
	if s.n.batchFrags == nil {
		s.n.batchFrags = make(map[fragments.FragmentID]*streamState)
	}
}

func (s nodeBurstSink) EndBurst() {
	n := s.n
	frags := n.batchFrags
	n.batchFrags = nil
	if len(frags) == 0 {
		return
	}
	// Dispatch in fragment-ID order: deterministic, and consistent with
	// the shard-ordering protocol's ascending discipline.
	ids := make([]fragments.FragmentID, 0, len(frags))
	for f := range frags {
		ids = append(ids, f)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, f := range ids {
		n.dispatchShard(f, frags[f])
	}
}

// txnSpansShards reports whether a transaction's access set — its
// update fragment plus every fragment it read — touches more than one
// apply shard (the transactions the fragment-ID shard-ordering
// protocol exists for).
func (n *Node) txnSpansShards(t *activeTxn) bool {
	first := -1
	spans := func(f fragments.FragmentID) bool {
		si := n.cl.ShardOfFragment(f)
		if first == -1 {
			first = si
			return false
		}
		return si != first
	}
	if t.spec.Fragment != "" && spans(t.spec.Fragment) {
		return true
	}
	for _, r := range t.reads {
		if f, ok := n.cl.cat.FragmentOf(r.Object); ok && spans(f) {
			return true
		}
	}
	return false
}
