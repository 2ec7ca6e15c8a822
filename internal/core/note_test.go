package core

import (
	"testing"
	"time"

	"fragdb/internal/fragments"
	"fragdb/internal/metrics"
	"fragdb/internal/trace"
	"fragdb/internal/txn"
)

// TestRoutesCoverEveryKind: every fact kind has a routing row that feeds
// at least one sink. The table is indexed by trace.Kind outside package
// trace, so the traceexhaustive analyzer cannot check it; a kind added
// without a row would silently vanish from every sink.
func TestRoutesCoverEveryKind(t *testing.T) {
	for k := trace.KNone + 1; int(k) < trace.NumKinds; k++ {
		r := routes[k]
		if r.count == nil && r.cells == nil && !r.ring {
			t.Errorf("kind %v has no routing row", k)
		}
	}
	if r := routes[trace.KNone]; r.count != nil || r.cells != nil || r.ring {
		t.Error("KNone must feed nothing")
	}
}

// TestNoteAllocatesNothingWithSinksOff: with the registry and the ring
// off (the default), reporting any fact costs no allocation — the
// counters are fixed atomics.
func TestNoteAllocatesNothingWithSinksOff(t *testing.T) {
	cl := bankCluster(t, UnrestrictedReads)
	n := cl.Node(0)
	for k := trace.KNone + 1; int(k) < trace.NumKinds; k++ {
		e := trace.Event{Kind: k, Txn: txn.ID{Origin: 1, Seq: 7}, Frag: "F0", Obj: "F0/a",
			Dur: 3, Arg: 2, Note: "label", Err: "cause", Class: "timeout", Origin: 1}
		if a := testing.AllocsPerRun(100, func() { n.note(e) }); a != 0 {
			t.Errorf("note(%v) allocates %.0f times per call with sinks off", k, a)
		}
	}
}

// TestNoteFeedsLabeledCells: a fact with an object is charged to the
// object's fragment, and a fact on an object outside the catalog feeds
// no labeled cell (the counters still count it).
func TestNoteFeedsLabeledCells(t *testing.T) {
	cl := populateBank(t, NewCluster(Config{N: 3, Seed: 42, LabeledMetrics: true}), UnrestrictedReads)
	n := cl.Node(0)
	n.note(trace.Event{Kind: trace.KRead, Obj: "F1/a", Origin: 2})
	n.note(trace.Event{Kind: trace.KRead, Obj: "nowhere", Origin: 2})
	n.note(trace.Event{Kind: trace.KAbort, Frag: "F0", Origin: 1, Class: "timeout"})
	reg := cl.Registry()
	if got := reg.Reads.Get(metrics.Label{Frag: "F1", Node: 2}); got != 1 {
		t.Errorf("reads(F1, n2) = %d, want 1", got)
	}
	if s := reg.Reads.Samples(); len(s) != 1 {
		t.Errorf("uncataloged read fed a cell: %+v", s)
	}
	if got := reg.Aborts.Get(metrics.Label{Frag: "F0", Node: 1}, "timeout"); got != 1 {
		t.Errorf("aborts(F0, n1, timeout) = %d, want 1", got)
	}
	if got := cl.Stats().Aborted.Load(); got != 1 {
		t.Errorf("Aborted = %d, want 1", got)
	}
}

// TestEpochSwitchForwardFeedsRegistry drives rule B(2)'s switch-time
// forward by hand: a quasi-transaction buffered behind a gap when an
// unprepared move's M0 switches the epoch is forwarded to the new home,
// and the forward reaches the labeled registry as well as the counters.
func TestEpochSwitchForwardFeedsRegistry(t *testing.T) {
	cl := populateBank(t, NewCluster(Config{N: 3, Seed: 42, LabeledMetrics: true}), UnrestrictedReads)
	n := cl.Node(2)
	// e0#1 never arrived, so e0#2 waits in F0's pending buffer.
	n.ingestQuasi(txn.Quasi{Txn: txn.ID{Origin: 0, Seq: 99}, Fragment: "F0",
		Pos: txn.FragPos{Seq: 2}, Home: 0, Writes: []txn.WriteOp{{Object: "F0/a", Value: int64(1)}}})
	n.handleM0(m0Msg{Fragment: "F0", NewEpoch: 1, NewHome: 1})
	if got := cl.Stats().QuasiForwarded.Load(); got != 1 {
		t.Fatalf("QuasiForwarded = %d, want the one switch-time forward", got)
	}
	if got := cl.Registry().Forwards.Get(metrics.Label{Frag: "F0", Node: 0}); got != 1 {
		t.Errorf("frag_forwards_total{F0, home 0} = %d, want 1", got)
	}
}

// TestDeferredEpochSwitchInstallsPrefix: when M0 arrives while a quasi
// is parked on a lock, the switch waits for the install, then drains
// the old-epoch prefix M0 carried (rule B(1)) before switching. It used
// to switch first and forward the prefix's tail to the new home as
// stragglers; the new home had installed them already and dropped
// them, so this replica never did.
func TestDeferredEpochSwitchInstallsPrefix(t *testing.T) {
	cl := populateBank(t, NewCluster(Config{N: 3, Seed: 42, Option: UnrestrictedReads}), UnrestrictedReads)
	n := cl.Node(2)
	// A local reader holds F0/a's shared lock for a while.
	n.Submit(TxnSpec{Label: "reader", Program: func(tx *Tx) error {
		if _, err := tx.Read("F0/a"); err != nil {
			return err
		}
		tx.Think(50 * time.Millisecond)
		return nil
	}}, nil)
	cl.RunFor(10 * time.Millisecond)
	quasi := func(seq uint64, obj fragments.ObjectID) txn.Quasi {
		return txn.Quasi{Txn: txn.ID{Origin: 0, Seq: 100 + seq}, Fragment: "F0",
			Pos: txn.FragPos{Seq: seq}, Home: 0, Writes: []txn.WriteOp{{Object: obj, Value: int64(seq)}}}
	}
	q1, q2 := quasi(1, "F0/a"), quasi(2, "F0/b")
	n.ingestQuasi(q1) // parks behind the reader
	n.handleM0(m0Msg{Fragment: "F0", NewEpoch: 1, NewHome: 1,
		OldLast: q2.Pos, Installed: []txn.Quasi{q1, q2}})
	if n.StreamPos("F0").Epoch != 0 {
		t.Fatal("switched while a quasi was parked on a lock")
	}
	cl.RunFor(200 * time.Millisecond)
	if pos := n.StreamPos("F0"); pos.Epoch != 1 {
		t.Fatalf("stream at %v, want the switch to epoch 1", pos)
	}
	if v, _ := n.Store().Get("F0/b"); v != int64(2) {
		t.Errorf("F0/b = %v, want 2: the prefix's e0#2 was not installed", v)
	}
	if got := cl.Stats().QuasiForwarded.Load(); got != 0 {
		t.Errorf("QuasiForwarded = %d, want 0: the prefix is not a straggler", got)
	}
}
