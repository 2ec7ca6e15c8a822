package lock

import (
	"testing"

	"fragdb/internal/fragments"
	"fragdb/internal/txn"
)

func id(n uint64) txn.ID { return txn.ID{Origin: 0, Seq: n} }

func obj(s string) fragments.ObjectID { return fragments.ObjectID(s) }

func mustGrant(t *testing.T, m *Manager, tid txn.ID, o string, mode Mode) {
	t.Helper()
	ok, err := m.Acquire(tid, obj(o), mode)
	if err != nil || !ok {
		t.Fatalf("Acquire(%v, %s, %v) = %v, %v; want immediate grant", tid, o, mode, ok, err)
	}
}

func mustQueue(t *testing.T, m *Manager, tid txn.ID, o string, mode Mode) {
	t.Helper()
	ok, err := m.Acquire(tid, obj(o), mode)
	if err != nil || ok {
		t.Fatalf("Acquire(%v, %s, %v) = %v, %v; want queued", tid, o, mode, ok, err)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	mustGrant(t, m, id(2), "x", Shared)
	if !m.Holds(id(1), obj("x"), Shared) || !m.Holds(id(2), obj("x"), Shared) {
		t.Error("Holds wrong")
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustQueue(t, m, id(2), "x", Shared)
	mustQueue(t, m, id(3), "x", Exclusive)
	if !m.Waiting(id(2)) || !m.Waiting(id(3)) {
		t.Error("Waiting wrong")
	}
	grants := m.Release(id(1))
	// FIFO: id(2) shared first; id(3) exclusive must not be granted
	// while 2 holds shared.
	if len(grants) != 1 || grants[0].Txn != id(2) || grants[0].Mode != Shared {
		t.Fatalf("grants = %+v", grants)
	}
	grants = m.Release(id(2))
	if len(grants) != 1 || grants[0].Txn != id(3) || grants[0].Mode != Exclusive {
		t.Fatalf("grants = %+v", grants)
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustGrant(t, m, id(1), "x", Shared)
	mustGrant(t, m, id(1), "x", Exclusive)
	if m.NumHeld(id(1)) != 1 {
		t.Errorf("NumHeld = %d", m.NumHeld(id(1)))
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	mustGrant(t, m, id(1), "x", Exclusive) // upgrade in place
	if !m.Holds(id(1), obj("x"), Exclusive) {
		t.Error("upgrade failed")
	}
}

func TestUpgradeWithOtherHolderQueues(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	mustGrant(t, m, id(2), "x", Shared)
	mustQueue(t, m, id(1), "x", Exclusive)
	grants := m.Release(id(2))
	if len(grants) != 1 || grants[0].Txn != id(1) || grants[0].Mode != Exclusive {
		t.Fatalf("grants = %+v", grants)
	}
	if !m.Holds(id(1), obj("x"), Exclusive) {
		t.Error("upgrade after release failed")
	}
}

func TestSharedCannotBypassQueuedExclusive(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	mustQueue(t, m, id(2), "x", Exclusive)
	// A new shared request must queue behind the exclusive, not starve it.
	mustQueue(t, m, id(3), "x", Shared)
	grants := m.Release(id(1))
	if len(grants) != 1 || grants[0].Txn != id(2) {
		t.Fatalf("grants = %+v, want X to id 2 first", grants)
	}
	grants = m.Release(id(2))
	if len(grants) != 1 || grants[0].Txn != id(3) {
		t.Fatalf("grants = %+v, want S to id 3 next", grants)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustGrant(t, m, id(2), "y", Exclusive)
	mustQueue(t, m, id(1), "y", Exclusive)
	ok, err := m.Acquire(id(2), obj("x"), Exclusive)
	if ok || err != ErrDeadlock {
		t.Fatalf("Acquire = %v, %v; want deadlock", ok, err)
	}
	// The denied request must not be queued.
	if m.Waiting(id(2)) {
		t.Error("deadlocked request was queued anyway")
	}
	// Aborting id(2) releases y and unblocks id(1).
	grants := m.Release(id(2))
	if len(grants) != 1 || grants[0].Txn != id(1) || grants[0].Object != obj("y") {
		t.Fatalf("grants = %+v", grants)
	}
}

// TestAcquirePriorityQueuesThroughCycle: the request Acquire refuses
// for closing a cycle, AcquirePriority queues, and the cycle partner's
// release grants it.
func TestAcquirePriorityQueuesThroughCycle(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "a", Exclusive)
	mustGrant(t, m, id(2), "b", Exclusive)
	mustQueue(t, m, id(2), "a", Exclusive)
	if _, err := m.Acquire(id(1), obj("b"), Exclusive); err != ErrDeadlock {
		t.Fatalf("Acquire closing the cycle: err = %v, want ErrDeadlock", err)
	}
	if m.AcquirePriority(id(1), obj("b"), Exclusive) {
		t.Fatal("AcquirePriority granted a held lock")
	}
	if !m.Waiting(id(1)) {
		t.Fatal("AcquirePriority did not queue the request")
	}
	grants := m.Release(id(2))
	if len(grants) != 1 || grants[0].Txn != id(1) || grants[0].Object != obj("b") {
		t.Fatalf("grants = %+v, want id(1) on b", grants)
	}
	if !m.AcquirePriority(id(3), obj("c"), Shared) {
		t.Error("AcquirePriority on a free object was not granted")
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "a", Exclusive)
	mustGrant(t, m, id(2), "b", Exclusive)
	mustGrant(t, m, id(3), "c", Exclusive)
	mustQueue(t, m, id(1), "b", Exclusive)
	mustQueue(t, m, id(2), "c", Exclusive)
	ok, err := m.Acquire(id(3), obj("a"), Exclusive)
	if ok || err != ErrDeadlock {
		t.Fatalf("3-way deadlock not detected: %v, %v", ok, err)
	}
}

func TestNoFalseDeadlock(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "a", Exclusive)
	mustGrant(t, m, id(2), "b", Exclusive)
	// Chain 3 -> a -> (1), 1 not waiting: no cycle.
	mustQueue(t, m, id(3), "a", Exclusive)
	mustQueue(t, m, id(4), "b", Shared)
	if m.Waiting(id(1)) || m.Waiting(id(2)) {
		t.Error("holders marked waiting")
	}
}

func TestReleaseRemovesQueuedRequest(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustQueue(t, m, id(2), "x", Exclusive)
	m.Release(id(2)) // abort while queued
	grants := m.Release(id(1))
	if len(grants) != 0 {
		t.Fatalf("grants = %+v, want none (queued request was removed)", grants)
	}
}

func TestReleaseMultipleObjectsDeterministic(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "a", Exclusive)
	mustGrant(t, m, id(1), "b", Exclusive)
	mustGrant(t, m, id(1), "c", Exclusive)
	mustQueue(t, m, id(2), "c", Shared)
	mustQueue(t, m, id(3), "a", Shared)
	grants := m.Release(id(1))
	if len(grants) != 2 {
		t.Fatalf("grants = %+v", grants)
	}
	// Deterministic object order: a before c.
	if grants[0].Object != obj("a") || grants[1].Object != obj("c") {
		t.Errorf("grant order = %+v, want a then c", grants)
	}
}

func TestPromoteGrantsMultipleShared(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	mustQueue(t, m, id(2), "x", Shared)
	mustQueue(t, m, id(3), "x", Shared)
	grants := m.Release(id(1))
	if len(grants) != 2 {
		t.Fatalf("grants = %+v, want both shared granted", grants)
	}
}

func TestHoldsModeSemantics(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Shared)
	if m.Holds(id(1), obj("x"), Exclusive) {
		t.Error("shared holder reported as exclusive")
	}
	if m.Holds(id(2), obj("x"), Shared) {
		t.Error("non-holder reported as holder")
	}
	if m.Holds(id(1), obj("zzz"), Shared) {
		t.Error("holder of untouched object")
	}
}

func TestStringDump(t *testing.T) {
	m := NewManager()
	mustGrant(t, m, id(1), "x", Exclusive)
	if m.String() == "" {
		t.Error("String dump empty with held locks")
	}
}
