package main

import (
	"errors"
	"sort"
	"sync"

	"fragdb/internal/core"
	"fragdb/internal/txn"
)

// phase tags a submission with the part of the run it belongs to.
type phase int

const (
	// phaseMeasured submissions feed the latency percentiles.
	phaseMeasured phase = iota
	// phasePartition submissions were made while the network was split;
	// they feed avail_partition.
	phasePartition
)

// txnLog records every submission's outcome. Times are nanoseconds on
// the workload's clock: virtual time on the simulator, wall time since
// the run's epoch over TCP. It is safe for concurrent use.
type txnLog struct {
	n  int
	mu sync.Mutex

	offered, committed, failed  int64
	byPhase                     [2]struct{ offered, committed int64 }
	deadlocks, wounds, timeouts int64

	commitLat, replLat []float64 // ms, measured phase only
	// installs counts, per committed transaction still replicating,
	// the replicas that have installed it.
	installs map[txn.ID]*replEntry
}

type replEntry struct {
	start    int64
	count    int
	measured bool
}

func newTxnLog(n int) *txnLog {
	return &txnLog{n: n, installs: make(map[txn.ID]*replEntry)}
}

func (l *txnLog) submitted(ph phase) {
	l.mu.Lock()
	l.offered++
	l.byPhase[ph].offered++
	l.mu.Unlock()
}

// done records a transaction's outcome; start is when it was submitted
// (or due) and end when its home node reported it.
func (l *txnLog) done(r core.TxnResult, ph phase, start, end int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !r.Committed {
		l.failed++
		switch {
		case errors.Is(r.Err, core.ErrDeadlock):
			l.deadlocks++
		case errors.Is(r.Err, core.ErrWounded):
			l.wounds++
		case errors.Is(r.Err, core.ErrTimeout):
			l.timeouts++
		}
		return
	}
	l.committed++
	l.byPhase[ph].committed++
	if ph == phaseMeasured {
		l.commitLat = append(l.commitLat, float64(end-start)/1e6)
	}
	l.installs[r.ID] = &replEntry{start: start, measured: ph == phaseMeasured}
}

// installed records that one replica (the home node included) has
// installed transaction id at time now. The last replica's install
// completes the transaction's replication.
func (l *txnLog) installed(id txn.ID, now int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.installs[id]
	if !ok {
		return
	}
	e.count++
	if e.count < l.n {
		return
	}
	if e.measured {
		l.replLat = append(l.replLat, float64(now-e.start)/1e6)
	}
	delete(l.installs, id)
}

// inFlight is the number of submissions without an outcome yet.
func (l *txnLog) inFlight() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.offered - l.committed - l.failed
}

func (l *txnLog) committedIn(ph phase) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byPhase[ph].committed
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
