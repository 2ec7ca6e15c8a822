// Package agentmove implements the agent-movement protocols of the
// paper's Section 4.4 on top of the engine hooks in package core.
// Allowing agents to move raises the problem of missing transactions
// (Figure 4.4.1): the new home node may start updating a fragment
// before all of the old home's updates have reached it. The paper's
// remedies fall into three categories, all implemented here:
//
//   - Permanent preparatory actions (4.4.1): run the cluster with
//     majority commit; MoveMajority then reconstructs the fragment's
//     full update stream by querying a majority of nodes.
//   - Actions at the time of the move (4.4.2): MoveWithData transports
//     the fragment's contents with the agent (the tape, the magnetic
//     strip); MoveWithSeq carries only the last sequence number and
//     waits at the new home until the stream catches up.
//   - No preparatory actions (4.4.3): MoveNoPrep lets the agent resume
//     immediately; the engine's M0/epoch protocol repackages missing
//     transactions afterwards, preserving only mutual consistency.
//
// Every protocol operates on all fragments whose tokens the agent
// holds.
package agentmove

import (
	"errors"
	"fmt"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/storage"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// Sentinel errors.
var (
	// ErrUnknownAgent: the agent holds no tokens.
	ErrUnknownAgent = errors.New("agentmove: agent holds no fragment tokens")
	// ErrSameNode: the agent already lives at the destination.
	ErrSameNode = errors.New("agentmove: agent already at destination")
	// ErrMoveTimeout: the protocol could not complete within its deadline.
	ErrMoveTimeout = errors.New("agentmove: move timed out")
	// ErrNeedMajorityCommit: MoveMajority requires a majority-commit cluster.
	ErrNeedMajorityCommit = errors.New("agentmove: cluster does not run majority commit")
)

// Result reports a move's outcome.
type Result struct {
	Agent      fragments.AgentID
	From, To   netsim.NodeID
	Completed  bool
	Err        error
	Start, End simtime.Time
}

// emit records a movement-protocol event in a node's flight recorder
// (a no-op when the cluster runs without tracing).
func emit(cl *core.Cluster, node netsim.NodeID, e trace.Event) {
	cl.Trace(node).Emit(e)
}

// moveNote labels a movement event with its protocol and agent.
func moveNote(protocol string, agent fragments.AgentID) string {
	return protocol + " " + string(agent)
}

// plan validates the move and returns the source node and fragment set.
func plan(cl *core.Cluster, agent fragments.AgentID, to netsim.NodeID) (netsim.NodeID, []fragments.FragmentID, error) {
	fs := cl.Tokens().FragmentsOf(agent)
	if len(fs) == 0 {
		return 0, nil, fmt.Errorf("%w: %q", ErrUnknownAgent, agent)
	}
	from, ok := cl.Tokens().Home(agent)
	if !ok {
		return 0, nil, fmt.Errorf("%w: %q", ErrUnknownAgent, agent)
	}
	if from == to {
		return 0, nil, ErrSameNode
	}
	return from, fs, nil
}

// MoveWithData implements Section 4.4.2A: the agent stops updating at
// the old home, a snapshot of each of its fragments is transported
// out-of-band (taking transport of virtual time — the tape in the
// trunk, the magnetic strip in the wallet), installed at the new home
// in place of its replica, and the agent resumes there. Fragmentwise
// serializability and mutual consistency are preserved; availability is
// lost only for the transport duration.
func MoveWithData(cl *core.Cluster, agent fragments.AgentID, to netsim.NodeID,
	transport simtime.Duration, done func(Result)) {
	start := cl.Now()
	from, fs, err := plan(cl, agent, to)
	if err != nil {
		if done != nil {
			done(Result{Agent: agent, To: to, Err: err, Start: start, End: cl.Now()})
		}
		return
	}
	src, dst := cl.Node(from), cl.Node(to)
	emit(cl, from, trace.Event{Kind: trace.KMoveBegin, Peer: to, HasPeer: true,
		Note: moveNote("with-data", agent)})
	snaps := make(map[fragments.FragmentID]map[fragments.ObjectID]storage.Version, len(fs))
	poss := make(map[fragments.FragmentID]txn.FragPos, len(fs))
	for _, f := range fs {
		src.SetMoveBlocked(f, true)
		// In-flight transactions must not commit after the snapshot is
		// taken: their updates would be missing from the transported copy
		// yet claim the stream positions the new home continues from.
		src.FenceMoving(f)
		snaps[f] = src.Store().FragmentSnapshot(f)
		poss[f] = src.StreamPos(f)
	}
	cl.Sched().After(transport, func() {
		for _, f := range fs {
			dst.InstallSnapshot(f, snaps[f], poss[f])
		}
		cl.Tokens().MoveAgent(agent, to)
		for _, f := range fs {
			src.SetMoveBlocked(f, false)
		}
		emit(cl, to, trace.Event{Kind: trace.KMoveDone, Peer: from, HasPeer: true,
			Note: moveNote("with-data", agent)})
		if done != nil {
			done(Result{Agent: agent, From: from, To: to, Completed: true, Start: start, End: cl.Now()})
		}
	})
}

// MoveWithSeq implements Section 4.4.2B: the agent carries only the
// sequence number of its last transaction; the new home waits until all
// previous quasi-transactions have been received and run before the
// agent resumes. If the stream does not catch up within maxWait (e.g.
// the partition separating old and new home persists), the move fails
// and the agent stays at the old home.
func MoveWithSeq(cl *core.Cluster, agent fragments.AgentID, to netsim.NodeID,
	maxWait simtime.Duration, done func(Result)) {
	start := cl.Now()
	from, fs, err := plan(cl, agent, to)
	if err != nil {
		if done != nil {
			done(Result{Agent: agent, To: to, Err: err, Start: start, End: cl.Now()})
		}
		return
	}
	src, dst := cl.Node(from), cl.Node(to)
	emit(cl, from, trace.Event{Kind: trace.KMoveBegin, Peer: to, HasPeer: true,
		Note: moveNote("with-seq", agent)})
	poss := make(map[fragments.FragmentID]txn.FragPos, len(fs))
	for _, f := range fs {
		src.SetMoveBlocked(f, true)
		// The carried sequence number is the stream position at move
		// start; fence in-flight transactions so nothing commits beyond
		// it at the old home once the new home takes over.
		src.FenceMoving(f)
		poss[f] = src.StreamPos(f)
	}
	remaining := len(fs)
	failed := false
	finish := func() {
		cl.Tokens().MoveAgent(agent, to)
		for _, f := range fs {
			src.SetMoveBlocked(f, false)
		}
		emit(cl, to, trace.Event{Kind: trace.KMoveDone, Peer: from, HasPeer: true,
			Note: moveNote("with-seq", agent)})
		if done != nil {
			done(Result{Agent: agent, From: from, To: to, Completed: true, Start: start, End: cl.Now()})
		}
	}
	deadline := cl.Sched().After(maxWait, func() {
		if remaining == 0 {
			return
		}
		failed = true
		for _, f := range fs {
			src.SetMoveBlocked(f, false) // agent stays put, resumes at old home
		}
		emit(cl, from, trace.Event{Kind: trace.KMoveFail, Peer: to, HasPeer: true,
			Err: ErrMoveTimeout.Error(), Note: moveNote("with-seq", agent)})
		if done != nil {
			done(Result{Agent: agent, From: from, To: to, Err: ErrMoveTimeout, Start: start, End: cl.Now()})
		}
	})
	for _, f := range fs {
		f := f
		dst.WaitForStream(f, poss[f], func() {
			if failed {
				return
			}
			remaining--
			if remaining == 0 {
				cl.Sched().Cancel(deadline)
				finish()
			}
		})
	}
}

// MoveNoPrep implements Section 4.4.3: the agent moves and starts
// processing new transactions immediately. The new home opens a new
// epoch and broadcasts M0; missing transactions are recovered and
// repackaged later (rule A(2)), other nodes forward stragglers (rule
// B(2)). Only mutual consistency is guaranteed.
func MoveNoPrep(cl *core.Cluster, agent fragments.AgentID, to netsim.NodeID, done func(Result)) {
	start := cl.Now()
	from, fs, err := plan(cl, agent, to)
	if err != nil {
		if done != nil {
			done(Result{Agent: agent, To: to, Err: err, Start: start, End: cl.Now()})
		}
		return
	}
	emit(cl, from, trace.Event{Kind: trace.KMoveBegin, Peer: to, HasPeer: true,
		Note: moveNote("no-prep", agent)})
	cl.Tokens().MoveAgent(agent, to)
	for _, f := range fs {
		cl.Node(to).BeginNoPrepEpoch(f)
	}
	emit(cl, to, trace.Event{Kind: trace.KMoveDone, Peer: from, HasPeer: true,
		Note: moveNote("no-prep", agent)})
	if done != nil {
		done(Result{Agent: agent, From: from, To: to, Completed: true, Start: start, End: cl.Now()})
	}
}

// MoveMajority implements Section 4.4.1: with the cluster running the
// majority commit protocol, every committed transaction is known to a
// majority of nodes. The new home queries all nodes for the fragment's
// latest position; once a majority (counting itself) has answered, the
// highest reported position bounds the full stream, and the new home
// waits (anti-entropy fills the gap) until it has run everything, then
// takes over. If no majority answers within maxWait, the move fails.
func MoveMajority(cl *core.Cluster, agent fragments.AgentID, to netsim.NodeID,
	maxWait simtime.Duration, done func(Result)) {
	start := cl.Now()
	if !cl.Config().MajorityCommit {
		if done != nil {
			done(Result{Agent: agent, To: to, Err: ErrNeedMajorityCommit, Start: start, End: cl.Now()})
		}
		return
	}
	from, fs, err := plan(cl, agent, to)
	if err != nil {
		if done != nil {
			done(Result{Agent: agent, To: to, Err: err, Start: start, End: cl.Now()})
		}
		return
	}
	src, dst := cl.Node(from), cl.Node(to)
	emit(cl, from, trace.Event{Kind: trace.KMoveBegin, Peer: to, HasPeer: true,
		Note: moveNote("majority", agent)})
	for _, f := range fs {
		src.SetMoveBlocked(f, true)
		// The majority reconstruction bounds only committed transactions;
		// an in-flight transaction still assembling its majority would
		// otherwise commit later, colliding with the sequence numbers the
		// new home hands out. Fencing it also broadcasts the abort of its
		// prepared quasi-transaction.
		src.FenceMoving(f)
	}
	majority := cl.Config().N/2 + 1
	remaining := len(fs)
	failed := false
	var queries []uint64
	cleanup := func() {
		for _, id := range queries {
			dst.EndQuery(id)
		}
	}
	deadline := cl.Sched().After(maxWait, func() {
		if remaining == 0 {
			return
		}
		failed = true
		cleanup()
		for _, f := range fs {
			src.SetMoveBlocked(f, false)
		}
		emit(cl, from, trace.Event{Kind: trace.KMoveFail, Peer: to, HasPeer: true,
			Err: ErrMoveTimeout.Error(), Note: moveNote("majority", agent)})
		if done != nil {
			done(Result{Agent: agent, From: from, To: to, Err: ErrMoveTimeout, Start: start, End: cl.Now()})
		}
	})
	finishOne := func() {
		remaining--
		if remaining > 0 {
			return
		}
		cl.Sched().Cancel(deadline)
		cleanup()
		cl.Tokens().MoveAgent(agent, to)
		for _, f := range fs {
			src.SetMoveBlocked(f, false)
		}
		emit(cl, to, trace.Event{Kind: trace.KMoveDone, Peer: from, HasPeer: true,
			Note: moveNote("majority", agent)})
		if done != nil {
			done(Result{Agent: agent, From: from, To: to, Completed: true, Start: start, End: cl.Now()})
		}
	}
	for _, f := range fs {
		f := f
		answered := map[netsim.NodeID]bool{to: true}
		maxPos := dst.StreamPos(f)
		reached := false
		var qid uint64
		qid = dst.QueryStreamPos(f, func(fromNode netsim.NodeID, pos txn.FragPos) {
			if failed || reached {
				return
			}
			answered[fromNode] = true
			if maxPos.Less(pos) {
				maxPos = pos
			}
			if len(answered) < majority {
				return
			}
			reached = true
			dst.EndQuery(qid)
			dst.WaitForStream(f, maxPos, func() {
				if failed {
					return
				}
				finishOne()
			})
		})
		queries = append(queries, qid)
	}
}
