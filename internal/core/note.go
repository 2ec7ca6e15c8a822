package core

import (
	"fragdb/internal/metrics"
	"fragdb/internal/simtime"
	"fragdb/internal/trace"
)

// Instrumentation has one path: every engine fact in this package is
// reported once, as one trace.Event handed to Node.note, and the
// routing table below decides what it feeds — the always-on
// metrics.Counters, the opt-in labeled metrics.Registry
// (Config.LabeledMetrics) and the opt-in flight recorder
// (Config.TraceCap). One event feeding all three keeps them from
// drifting apart.

// route is one kind's row of the routing table.
type route struct {
	// count bumps the Counters fields the fact feeds.
	count func(c *metrics.Counters, e trace.Event)
	// cells resolves the registry cells the fact feeds at label l;
	// class is the abort-cause label of the aborts vector.
	cells func(r *metrics.Registry, l metrics.Label, class string) regCells
	// ring records the event in the flight recorder.
	ring bool
}

// regCells are the registry cells one fact feeds: a counter and, for
// facts whose Dur is a latency, its histogram.
type regCells struct {
	n   metrics.Counter
	dur *metrics.Histogram
}

// ringOnly routes a fact to the flight recorder alone.
var ringOnly = route{ring: true}

// routes is the routing table; every kind but KNone has a row. The
// accounting-only kinds have no ring, so flight-recorder contents do
// not depend on them.
var routes = [trace.NumKinds]route{
	trace.KSubmit: ringOnly, trace.KLockGrant: ringOnly, trace.KLockDeadlock: ringOnly,
	trace.KQuasiSend: ringOnly, trace.KMajorityPrepare: ringOnly, trace.KPrepareBuffered: ringOnly,
	trace.KMajorityAck: ringOnly, trace.KPreparedDrop: ringOnly, trace.KRemoteLockGrant: ringOnly,
	trace.KRemoteLockExpire: ringOnly, trace.KCrash: ringOnly, trace.KRestart: ringOnly,
	trace.KSnapCapture: ringOnly, trace.KSnapInstall: ringOnly, trace.KMoveFence: ringOnly,
	trace.KMoveInstall: ringOnly, trace.KMoveEpoch: ringOnly, trace.KEpochSwitch: ringOnly,
	trace.KShardApply: ringOnly,
	// The broadcast layer and agentmove record these straight into the
	// ring; the rows keep the table total.
	trace.KCompact: ringOnly, trace.KSnapOffer: ringOnly, trace.KSnapAccept: ringOnly,
	trace.KPendingDrop: ringOnly, trace.KMoveBegin: ringOnly, trace.KMoveDone: ringOnly,
	trace.KMoveFail: ringOnly, trace.KElect: ringOnly,

	trace.KReject: {ring: true, cells: abortCells, count: func(c *metrics.Counters, _ trace.Event) {
		c.Rejected.Add(1)
		c.Aborted.Add(1)
	}},
	trace.KCommit: {ring: true, cells: commitCells, count: func(c *metrics.Counters, e trace.Event) {
		c.Committed.Add(1)
		c.CommitLatency.Observe(e.Dur)
	}},
	trace.KAbort: {ring: true, cells: abortCells, count: func(c *metrics.Counters, _ trace.Event) { c.Aborted.Add(1) }},
	trace.KQuasiApply: {ring: true, cells: applyCells, count: func(c *metrics.Counters, e trace.Event) {
		c.QuasiApplied.Add(1)
		c.QuasiLag.Observe(e.Dur)
	}},
	trace.KQuasiForward: {ring: true, cells: forwardCells, count: func(c *metrics.Counters, _ trace.Event) { c.QuasiForwarded.Add(1) }},
	trace.KRecover:      {ring: true, count: func(c *metrics.Counters, _ trace.Event) { c.MissingRecovered.Add(1) }},
	trace.KWound:        {ring: true, count: func(c *metrics.Counters, _ trace.Event) { c.Wounds.Add(1) }},
	trace.KLockWait:     {ring: true, cells: lockWaitCells},
	// A remote read-lock request is the requester's declared read.
	trace.KRemoteLockWait: {ring: true, cells: readCells},
	trace.KRemoteLockDeny: {ring: true, count: func(c *metrics.Counters, _ trace.Event) { c.Deadlocks.Add(1) }},

	// Accounting-only facts.
	trace.KOffer:            {count: func(c *metrics.Counters, _ trace.Event) { c.Offered.Add(1) }},
	trace.KRead:             {cells: readCells},
	trace.KWrite:            {cells: writeCells},
	trace.KDeadlockAbort:    {count: func(c *metrics.Counters, _ trace.Event) { c.Deadlocks.Add(1) }},
	trace.KTimeout:          {count: func(c *metrics.Counters, _ trace.Event) { c.TimedOut.Add(1) }},
	trace.KRemoteLockRefuse: {cells: remoteDenyCells},
	trace.KCrossShard:       {count: func(c *metrics.Counters, _ trace.Event) { c.CrossShardTxns.Add(1) }},
	trace.KApplyBusy: {count: func(c *metrics.Counters, e trace.Event) {
		c.ApplyParallelism.Observe(simtime.Duration(e.Arg))
	}},
	trace.KRecoverDropped: {count: func(c *metrics.Counters, _ trace.Event) { c.MissingRecovered.Add(1) }},
}

func readCells(r *metrics.Registry, l metrics.Label, _ string) regCells {
	return regCells{n: r.Reads.At(l)}
}
func writeCells(r *metrics.Registry, l metrics.Label, _ string) regCells {
	return regCells{n: r.Writes.At(l)}
}
func abortCells(r *metrics.Registry, l metrics.Label, c string) regCells {
	return regCells{n: r.Aborts.At(l, c)}
}
func forwardCells(r *metrics.Registry, l metrics.Label, _ string) regCells {
	return regCells{n: r.Forwards.At(l)}
}
func lockWaitCells(r *metrics.Registry, l metrics.Label, _ string) regCells {
	return regCells{n: r.LockWaits.At(l)}
}
func remoteDenyCells(r *metrics.Registry, l metrics.Label, _ string) regCells {
	return regCells{n: r.RemoteDenials.At(l)}
}
func commitCells(r *metrics.Registry, l metrics.Label, _ string) regCells {
	return regCells{n: r.Commits.At(l), dur: r.CommitLatency.At(l)}
}
func applyCells(r *metrics.Registry, l metrics.Label, _ string) regCells {
	return regCells{n: r.Applies.At(l), dur: r.QuasiLag.At(l)}
}

// cellKey names one fact kind's registry cells on one label.
type cellKey struct {
	kind  trace.Kind
	label metrics.Label
	class string
}

// note reports one engine fact to the sinks its kind's row names. It is
// the only code in this package that writes the Counters, the Registry
// or the flight recorder, and it allocates nothing with the registry
// and the recorder off.
func (n *Node) note(e trace.Event) {
	r := &routes[e.Kind]
	if r.count != nil {
		r.count(n.cl.stats, e)
	}
	if r.cells != nil && n.cl.reg != nil {
		n.feed(r, e)
	}
	if r.ring {
		n.tr.Emit(e)
	}
}

// feed adds the fact to its registry cells under the label (fragment,
// e.Origin). The fragment is e.Obj's when the fact names an object, else
// e.Frag; a fact on an object outside the catalog feeds nothing. Cells
// are resolved once per (kind, label, cause): labels are O(fragments ×
// nodes) and the node runs single-threaded, so the cache is unlocked.
func (n *Node) feed(r *route, e trace.Event) {
	l := metrics.Label{Frag: e.Frag, Node: e.Origin}
	if e.Obj != "" {
		f, ok := n.cl.cat.FragmentOf(e.Obj)
		if !ok {
			return
		}
		l.Frag = f
	}
	k := cellKey{e.Kind, l, e.Class}
	c, ok := n.regCells[k]
	if !ok {
		if n.regCells == nil {
			n.regCells = make(map[cellKey]regCells)
		}
		c = r.cells(n.cl.reg, l, e.Class)
		n.regCells[k] = c
	}
	c.n.Inc()
	if c.dur != nil {
		c.dur.Observe(e.Dur)
	}
}
