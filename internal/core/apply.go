package core

import (
	"slices"

	"fragdb/internal/fragments"
	"fragdb/internal/lock"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// The apply engine installs remote quasi-transactions (paper §2.2:
// every replica installs each fragment's updates in stream order;
// Section 4: they outrank local transactions). It has one acquire
// (acquireQuasi), one install (installQuasi) and two drivers that
// decide only when each runs:
//
//   - the inline driver (drainStream with Config.ApplyShards <= 1, and
//     every commutative quasi-transaction) acquires and installs in the
//     delivering event;
//   - the shard driver (shard.go) hands each fragment's contiguous
//     pending run to the fragment's apply shard, which installs it
//     after an ApplyLatency window, so disjoint fragments overlap in
//     virtual time.
//
// Both run on the node's scheduler, in the simulator and in deployment
// alike. The pending rule is the same for both: an ordered quasi stays
// in st.pending until it is installed, and the install re-checks that
// it is still there, so a snapshot merge or an epoch switch that
// overtakes an in-flight quasi (and drops it from st.pending) turns its
// install into a no-op instead of moving the stream backwards.

// quasiWaiter is one unit of apply work: a run of one fragment's
// quasi-transactions installed together under the locks of a single
// owner, the run's first transaction.
type quasiWaiter struct {
	f  fragments.FragmentID
	st *streamState
	// run is the work itself: one quasi on the inline driver, a
	// contiguous stream run on the shard driver.
	run []txn.Quasi
	// ordered is false for commutative fragments, whose installation
	// neither blocks nor advances the strict stream sequence.
	ordered bool
	// remaining holds the objects whose lock requests are still queued
	// (nil until the first one queues).
	remaining map[fragments.ObjectID]bool
	// acquiring is set while acquireQuasi issues requests: a grant that
	// arrives mid-loop (a wounded holder's release) only shrinks
	// remaining, and the loop's end decides.
	acquiring bool

	// Shard-driver state (zero on the inline driver): the scheduler
	// incarnation and shard that picked the run up, and whether the
	// shard slot stays held through the installation.
	shard    *applyState
	shardIdx int
	slotHeld bool
}

// drainStream applies buffered quasi-transactions that are next in
// order. The inline driver installs them one by one until one parks on
// locks; with the sharded apply path enabled, the stream is handed to
// its fragment's apply shard instead.
func (n *Node) drainStream(f fragments.FragmentID, st *streamState) {
	if n.apply != nil {
		n.dispatchShard(f, st)
		return
	}
	for !st.applying {
		q, ok := st.pending[st.last.Next()]
		if !ok {
			return
		}
		st.applying = true
		w := &quasiWaiter{f: f, st: st, run: []txn.Quasi{q}, ordered: true}
		if n.acquireQuasi(w) {
			n.quasiGranted(w)
		}
	}
}

// applyQuasiUnordered installs a commutative fragment's
// quasi-transaction without stream sequencing.
func (n *Node) applyQuasiUnordered(f fragments.FragmentID, st *streamState, q txn.Quasi) {
	w := &quasiWaiter{f: f, st: st, run: []txn.Quasi{q}}
	if n.acquireQuasi(w) {
		n.quasiGranted(w)
	}
}

// acquireQuasi takes exclusive locks on the run's write set — sorted
// and deduplicated — under the run's owner, and reports whether all of
// them are held. A request that would deadlock wounds the object's
// local holders (committed remote updates cannot be aborted). If the
// lock manager still refuses it, the cycle runs through a transaction
// the wounds cannot reach (another node's lock holder, a 2PC part), so
// the request is queued regardless and waits for that partner to
// release: a refused request is never queued, and waiting for its
// grant would wedge the stream for good. Objects left queued are
// recorded in w.remaining; onGrants hands w to its driver when the
// last one is granted.
func (n *Node) acquireQuasi(w *quasiWaiter) bool {
	owner := w.run[0].Txn
	if n.quasiWaiters == nil {
		n.quasiWaiters = make(map[txn.ID]*quasiWaiter)
	}
	n.quasiWaiters[owner] = w
	w.acquiring = true
	for _, o := range runWriteObjects(w.run) {
		granted, err := n.locks.Acquire(owner, o, lock.Exclusive)
		if err != nil {
			n.woundHolders(o, owner)
			granted = n.locks.AcquirePriority(owner, o, lock.Exclusive)
		}
		if !granted {
			if w.remaining == nil {
				w.remaining = make(map[fragments.ObjectID]bool)
			}
			w.remaining[o] = true
		}
	}
	w.acquiring = false
	return len(w.remaining) == 0
}

// runWriteObjects returns the union of the run's write sets in sorted
// order — one combined lock acquisition per run.
func runWriteObjects(run []txn.Quasi) []fragments.ObjectID {
	size := 0
	for _, q := range run {
		size += len(q.Writes)
	}
	out := make([]fragments.ObjectID, 0, size)
	for _, q := range run {
		for _, wo := range q.Writes {
			out = append(out, wo.Object)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// woundHolders aborts every local transaction holding a lock on o (and
// force-releases remote readers), so a committed remote update can
// proceed.
func (n *Node) woundHolders(o fragments.ObjectID, requester txn.ID) {
	for _, h := range n.locks.Holders(o) {
		if h == requester {
			continue
		}
		if t, ok := n.active[h]; ok {
			n.note(trace.Event{Kind: trace.KWound, Txn: h, Other: requester, Obj: o})
			n.abortBlocked(t, ErrWounded)
			continue
		}
		if rh, ok := n.remoteHeld[h]; ok {
			n.cl.sched.Cancel(rh.leaseEv)
			delete(n.remoteHeld, h)
			n.onGrants(n.locks.Release(h))
		}
	}
}

// quasiGranted is the drivers' single entry point once w holds every
// lock: the inline driver installs at once; the shard driver installs
// after the ApplyLatency window, unless a crash-restart replaced the
// scheduler incarnation that picked the run up.
func (n *Node) quasiGranted(w *quasiWaiter) {
	if w.shard == nil {
		n.installQuasi(w)
		return
	}
	as := w.shard
	n.cl.sched.After(n.cl.cfg.ApplyLatency, func() {
		if n.apply == as {
			n.installQuasi(w)
		}
	})
}

// installQuasi is the one install. It applies the run's
// quasi-transactions in order — each ordered one only if it is still in
// st.pending: a snapshot merge or epoch switch that overtook it has
// dropped it there, which makes its install a no-op, and the stream
// position only ever moves forward — then releases the owner's locks,
// unlatches the stream and gives it back to its driver. A local commit
// that took a pending quasi's position (two homes writing one epoch)
// leaves it pending, so it still installs, as every other replica
// installs it.
func (n *Node) installQuasi(w *quasiWaiter) {
	st := w.st
	owner := w.run[0].Txn
	// Compacts w.run in place: the run is the waiter's own.
	installed := w.run[:0]
	for _, q := range w.run {
		if w.ordered {
			if _, ok := st.pending[q.Pos]; !ok {
				continue
			}
			delete(st.pending, q.Pos)
		}
		n.ensureCataloged(w.f, q.Writes)
		n.store.ApplyQuasi(q)
		if st.last.Less(q.Pos) {
			st.last = q.Pos
		}
		st.appliedLog = append(st.appliedLog, q)
		n.note(trace.Event{Kind: trace.KQuasiApply, Txn: q.Txn, Frag: w.f, Pos: q.Pos,
			Peer: q.Home, HasPeer: true, Dur: n.cl.sched.Now().Sub(q.Stamp), Origin: q.Home})
		installed = append(installed, q)
	}
	delete(n.quasiWaiters, owner)
	grants := n.locks.Release(owner)
	if w.ordered {
		st.applying = false
	}
	n.onGrants(grants)
	if n.cl.onQuasiApplied != nil {
		for _, q := range installed {
			n.cl.onQuasiApplied(n.id, q)
		}
	}
	n.notifyStreamWaiters(st)
	if w.ordered {
		n.drainStream(w.f, st)
	}
	if w.slotHeld {
		n.shardStep(w.shard, w.shardIdx)
	}
}

// ensureCataloged registers a quasi-transaction's write objects in this
// process's catalog. In the simulator the shared catalog already knows
// them (the home node's write path registered each object before the
// quasi-transaction was broadcast, so this is a no-op); in a SingleNode
// multi-process deployment each process has its own catalog, which
// first learns of a remote agent's dynamically created objects here —
// before the install and any application trigger that reads them.
func (n *Node) ensureCataloged(f fragments.FragmentID, writes []txn.WriteOp) {
	for _, wo := range writes {
		// The only possible error is a cross-fragment conflict, which
		// would require two agents writing the same object — excluded by
		// the fragments-and-agents ownership model.
		_ = n.cl.cat.EnsureObject(f, wo.Object)
	}
}
