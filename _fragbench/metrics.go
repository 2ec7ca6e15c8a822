package main

import (
	"fmt"
	"math"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/metrics"
)

// runStats is everything one pass of a workload measured.
type runStats struct {
	n     int
	setup []float64 // seconds per set-up
	log   *txnLog

	// offered and failed cover the whole pass.
	offered, failed int64
	// The measured phase: its cost, commits and the live heap at its end.
	measured             phaseCost
	mOffered, mCommitted int64
	// rates are the measured phase's commit rates per wall second, one
	// per slice of it.
	rates     []float64
	heapBytes uint64
	// converge holds, per heal, the ms until every replica agreed.
	converge []float64
	// The cost of a quiescent, converged cluster per second of its own
	// clock (virtual in the simulator).
	idleUsPerSec, idleAllocsPerSec float64

	// wallClock marks the TCP workload, whose clock is the wall's.
	wallClock bool

	// Per-layer counts over the measured phase.
	events    uint64
	spans     *tracer
	wire      counts
	replay    wireReplay
	engine    engineCounts
	tcp       tcpCounts
	injectLag []float64 // µs
	late      []float64 // ms
	audit     time.Duration
}

// engineCounts are the counters core exports through Cluster.Stats,
// BroadcastStats, Registry and the stores, summed over the clusters of
// a workload (one in the simulator, one per node over TCP).
type engineCounts struct {
	lockWaits, remoteDenials           uint64
	payloadsSent, dataSends            uint64
	snapshotsInstalled, pendingDropped uint64
	storeRecords                       int64
	// Gauges, read at the end of the phase.
	logEntries, logBytes, storeObjs int64
}

func (e engineCounts) minus(d engineCounts) engineCounts {
	e.lockWaits -= d.lockWaits
	e.remoteDenials -= d.remoteDenials
	e.payloadsSent -= d.payloadsSent
	e.dataSends -= d.dataSends
	e.snapshotsInstalled -= d.snapshotsInstalled
	e.pendingDropped -= d.pendingDropped
	e.storeRecords -= d.storeRecords
	return e // gauges keep their end-of-phase values
}

// readEngine sums the counters of one cluster into e. Call it where the
// cluster's state may be read: between scheduler steps in the
// simulator, on the node's loop over TCP.
func readEngine(e *engineCounts, cl *core.Cluster) {
	e.lockWaits += sumCounter(cl.Registry(), func(r *metrics.Registry) *metrics.CounterVec { return &r.LockWaits })
	e.remoteDenials += sumCounter(cl.Registry(), func(r *metrics.Registry) *metrics.CounterVec { return &r.RemoteDenials })
	b := cl.BroadcastStats()
	e.payloadsSent += b.PayloadsSent.Load()
	e.dataSends += b.DataSends.Load()
	e.snapshotsInstalled += b.SnapshotsInstalled.Load()
	e.pendingDropped += b.PendingDropped.Load()
	e.logEntries += b.LogEntries.Load()
	e.logBytes += b.LogBytes.Load()
	for i := 0; i < cl.Config().N; i++ {
		if nd := cl.Node(netNode(i)); nd != nil {
			e.storeRecords += int64(nd.Store().LSN())
			e.storeObjs += int64(nd.Store().Len())
		}
	}
}

func sumCounter(r *metrics.Registry, vec func(*metrics.Registry) *metrics.CounterVec) uint64 {
	if r == nil {
		return 0
	}
	var sum uint64
	for _, s := range vec(r).Samples() {
		sum += s.Value
	}
	return sum
}

// tcpCounts are rtnet.TCPStats totals over the measured phase.
type tcpCounts struct{ frames, bytes, sendDropped uint64 }

func per(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return x / base
}

// endToEnd derives the metrics a user of the system sees from an
// untraced pass.
func endToEnd(rs *runStats) map[string]metric {
	l := rs.log
	part := l.byPhase[phasePartition]
	return map[string]metric{
		"setup_s":            {median(rs.setup), "s"},
		"txn_per_s":          {median(rs.rates), "1/s"},
		"commit_p50_ms":      {quantile(l.commitLat, 0.50), "ms"},
		"commit_p99_ms":      {quantile(l.commitLat, 0.99), "ms"},
		"repl_p50_ms":        {quantile(l.replLat, 0.50), "ms"},
		"repl_p99_ms":        {quantile(l.replLat, 0.99), "ms"},
		"fail_frac":          {per(float64(rs.failed), float64(rs.offered)), "fraction"},
		"avail_partition":    {per(float64(part.committed), float64(part.offered)), "fraction"},
		"converge_ms":        {median(rs.converge), "ms"},
		"idle_allocs_per_vs": {rs.idleAllocsPerSec, "allocs/s"},
		"allocs_per_txn":     {per(float64(rs.measured.allocs), float64(rs.mCommitted)), "allocs"},
		"heap_mb":            {float64(rs.heapBytes) / 1e6, "MB"},
	}
}

// perLayer derives the per-layer metrics from a traced pass; ref is the
// untraced reference pass over the same budget.
func perLayer(rs, ref *runStats) map[string]metric {
	agg, runs := rs.spans.stats()
	txns := float64(rs.mCommitted)
	offered1k := float64(rs.offered) / 1000
	l := rs.log
	m := map[string]metric{
		"simtime.events_per_txn": {per(float64(rs.events), txns), "events"},
		"core.submit_ns":         {mean(agg[spSubmit]), "ns"},
		"core.program_ns":        {per(float64(agg[spProgram].self), float64(runs)), "ns"},
		"core.tx_ops_per_txn": {per(float64(agg[spTxRead].count+agg[spTxWrite].count+agg[spTxThink].count),
			float64(runs)), "ops"},
		"core.runs_per_commit":          {per(float64(runs), txns), "runs"},
		"core.remote_denials_per_1k":    {per(float64(rs.engine.remoteDenials), float64(rs.mOffered)/1000), "per_1k"},
		"core.timeouts_per_1k":          {per(float64(l.timeouts), offered1k), "per_1k"},
		"lock.waits_per_txn":            {per(float64(rs.engine.lockWaits), float64(rs.mOffered)), "waits"},
		"lock.deadlocks_per_1k":         {per(float64(l.deadlocks), offered1k), "per_1k"},
		"lock.wounds_per_1k":            {per(float64(l.wounds), offered1k), "per_1k"},
		"broadcast.payloads_per_send":   {per(float64(rs.engine.payloadsSent), float64(rs.engine.dataSends)), "payloads"},
		"broadcast.redundant_frac":      {redundant(rs), "fraction"},
		"broadcast.snapshots_installed": {float64(rs.engine.snapshotsInstalled), "count"},
		"broadcast.pending_dropped":     {float64(rs.engine.pendingDropped), "count"},
		"broadcast.log_entries":         {float64(rs.engine.logEntries), "entries"},
		"broadcast.log_bytes":           {float64(rs.engine.logBytes), "bytes"},
		"storage.log_records_per_txn":   {per(float64(rs.engine.storeRecords), txns), "records"},
		"storage.objects":               {float64(rs.engine.storeObjs), "objects"},
		"wire.encode_ns_per_msg":        {rs.replay.encodeNs, "ns"},
		"wire.decode_ns_per_msg":        {rs.replay.decodeNs, "ns"},
		"wire.bytes_per_msg":            {rs.replay.bytes, "bytes"},
		// Measured on the untraced pass: the traced pass meters every
		// idle message too.
		"idle_us_per_vs":   {ref.idleUsPerSec, "us/s"},
		"history.audit_ms": {float64(rs.audit.Microseconds()) / 1000, "ms"},
		"trace.overhead_frac": {per(per(float64(rs.measured.cpu), txns),
			per(float64(ref.measured.cpu), float64(ref.mCommitted))) - 1, "fraction"},
	}
	if rs.wallClock {
		// Only the TCP workload crosses rtnet and paces a generator
		// against the wall clock.
		m["rtnet.frames_per_txn"] = metric{per(float64(rs.tcp.frames), txns), "frames"}
		m["rtnet.bytes_per_txn"] = metric{per(float64(rs.tcp.bytes), txns), "bytes"}
		m["rtnet.send_dropped"] = metric{float64(rs.tcp.sendDropped), "count"}
		m["rtnet.inject_lag_us_p50"] = metric{quantile(rs.injectLag, 0.50), "us"}
		m["rtnet.inject_lag_us_p99"] = metric{quantile(rs.injectLag, 0.99), "us"}
		m["gen.late_ms_p99"] = metric{quantile(rs.late, 0.99), "ms"}
	} else {
		// rtnet.Loop steps the scheduler internally, so only the
		// simulator's steps are spans.
		m["simtime.ns_per_event"] = metric{mean(agg[spStep]), "ns"}
		// One goroutine at a time runs the simulation, so the spans'
		// self times should add up to the traced phase's wall time.
		m["trace.coverage"] = metric{per(float64(rs.spans.selfSum()), float64(rs.measured.wall)), "fraction"}
	}
	for k := payloadKind(0); k < nKinds; k++ {
		name := kindNames[k]
		m["transport.msgs_per_txn."+name] = metric{per(float64(rs.wire.sent[k]), txns), "msgs"}
		m["transport.bytes_per_txn."+name] = metric{per(float64(rs.wire.bytes[k]), txns), "bytes"}
		m["transport.deliver_ns."+name] = metric{mean(agg[spDeliver+spanName(k)]), "ns"}
	}
	return m
}

func mean(a spanAgg) float64 { return per(float64(a.total), float64(a.count)) }

// redundant is the share of broadcast payloads sent beyond the n-1 per
// commit every replica needs.
func redundant(rs *runStats) float64 {
	sent := float64(rs.engine.payloadsSent)
	need := float64(rs.n-1) * float64(rs.mCommitted)
	return math.Max(0, per(sent-need, sent))
}

// coverageTolerance is how far the summed self times of the traced
// phase's spans may stray from its wall time on sim-commit: the gap is
// the driver loop between scheduler steps and the tracer's own
// bookkeeping outside any span.
const coverageTolerance = 0.10

func checkCoverage(rs *runStats) error {
	c := per(float64(rs.spans.selfSum()), float64(rs.measured.wall))
	if math.Abs(c-1) > coverageTolerance {
		return fmt.Errorf("span self times cover %.3f of the traced wall time, want 1±%.2f", c, coverageTolerance)
	}
	return nil
}
