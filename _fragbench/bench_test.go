package main

import (
	"reflect"
	"testing"
	"time"
)

// virtualView is everything a simulated run measures in virtual time or
// counts: it must be a pure function of the seed.
type virtualView struct {
	Offered, Committed, Failed int64
	ByPhase                    [2]struct{ offered, committed int64 }
	Causes                     [3]int64
	CommitLat, ReplLat         []float64
	Converge                   []float64
	Events                     uint64
	Engine                     engineCounts
}

func viewOf(rs *runStats) virtualView {
	l := rs.log
	return virtualView{
		Offered: l.offered, Committed: l.committed, Failed: l.failed,
		ByPhase:   l.byPhase,
		Causes:    [3]int64{l.deadlocks, l.wounds, l.timeouts},
		CommitLat: l.commitLat, ReplLat: l.replLat,
		Converge: rs.converge,
		Events:   rs.events,
		Engine:   rs.engine,
	}
}

func smallCommit(seed int64) (*runStats, error) {
	return simCommit(simCommitParams{seed: seed, target: 4000, probe: 300 * time.Millisecond})
}

func smallPartition(seed int64) (*runStats, error) {
	return simPartition(simPartitionParams{seed: seed, episodes: 2, healthy: 2 * time.Second, split: 4 * time.Second, rate: 100})
}

// TestSimDeterminism runs each simulator workload twice with one seed:
// virtual-time metrics, counts and avail_partition must be identical.
// A second seed must pass every correctness check the runs make.
func TestSimDeterminism(t *testing.T) {
	for name, run := range map[string]func(int64) (*runStats, error){
		"sim-commit":    smallCommit,
		"sim-partition": smallPartition,
	} {
		t.Run(name, func(t *testing.T) {
			a, err := run(1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(1)
			if err != nil {
				t.Fatal(err)
			}
			va, vb := viewOf(a), viewOf(b)
			if !reflect.DeepEqual(va, vb) {
				t.Errorf("same seed, different runs:\n%+v\n%+v", va, vb)
			}
			ea, eb := endToEnd(a), endToEnd(b)
			for _, m := range []string{"avail_partition", "commit_p50_ms", "commit_p99_ms",
				"repl_p50_ms", "repl_p99_ms", "converge_ms", "fail_frac"} {
				if ea[m] != eb[m] {
					t.Errorf("%s: %v vs %v", m, ea[m], eb[m])
				}
			}
			if va.Committed == 0 || va.ByPhase[phasePartition].offered == 0 || len(va.Converge) == 0 {
				t.Errorf("vacuous run: %+v", va)
			}
			if _, err := run(2); err != nil {
				t.Errorf("seed 2: %v", err)
			}
		})
	}
}

// TestTracedCoverage checks, on a small sim-commit run, that the traced
// spans nest so their self times account for the traced phase's wall
// time, and that every per-layer metric is reported.
func TestTracedCoverage(t *testing.T) {
	p := simCommitParams{seed: 3, target: 4000, probe: 300 * time.Millisecond}
	ref, err := simCommit(p)
	if err != nil {
		t.Fatal(err)
	}
	p.traced = true
	rs, err := simCommit(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCoverage(rs); err != nil {
		t.Error(err)
	}
	m := perLayer(rs, ref)
	for _, name := range []string{"simtime.ns_per_event", "core.program_ns", "core.submit_ns",
		"transport.deliver_ns.data", "wire.encode_ns_per_msg", "core.tx_ops_per_txn"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
	// A committed run makes 6 Tx calls (3 reads, think, 2 writes); an
	// aborted one stops early.
	if got := m["core.tx_ops_per_txn"].Value; got <= 3 || got > 6 {
		t.Errorf("core.tx_ops_per_txn = %v, want in (3, 6]", got)
	}
}

// TestTCPLoopback runs a short traced tcp-loopback pass: three engines
// over loopback TCP must pass the correctness gate, and the per-layer
// metrics only that workload has must be measured.
func TestTCPLoopback(t *testing.T) {
	rs, err := tcpLoopback(1, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	m := perLayer(rs, rs)
	for _, name := range []string{"rtnet.frames_per_txn", "rtnet.bytes_per_txn", "transport.deliver_ns.data"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
	if e := endToEnd(rs); e["avail_partition"].Value <= 0 || e["converge_ms"].Value <= 0 {
		t.Errorf("partition probes measured nothing: %+v", e)
	}
}
