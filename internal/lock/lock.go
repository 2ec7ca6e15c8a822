// Package lock implements the per-node lock manager used by the local
// concurrency control mechanism (paper Section 2.2: "at every node in
// the system, a local concurrency control mechanism is implemented").
//
// The manager provides strict two-phase locking: shared and exclusive
// locks acquired incrementally during a transaction's growing phase and
// released all at once at commit or abort. Conflicting requests queue
// in FIFO order. A waits-for graph is maintained and checked on every
// blocked acquisition; if granting the wait would close a cycle, the
// request is denied with ErrDeadlock and the caller is expected to
// abort the requesting transaction. AcquirePriority skips that check
// for requests that may not be refused.
//
// The manager is a passive, synchronous data structure: it never blocks
// on callers and never spawns goroutines, so it composes with the
// deterministic event simulation.
//
// # Sharding
//
// Internally the lock table is split into K fragment-hashed shards
// (NewSharded), each owning its own table, waiter queues, and held/
// waiting registries behind its own mutex. The uncontended Acquire fast
// path touches only the target object's shard, so appliers working on
// fragments that hash to different shards proceed in parallel. The
// blocked slow path — which needs the global waits-for graph — and
// Release — whose grant order must match the unsharded manager — take
// the involved shards' mutexes in ascending shard-index order, the
// canonical ordering that keeps the manager itself deadlock-free.
//
// With K=1 (NewManager) the manager behaves exactly like the historical
// single-table implementation; the sharded form is observationally
// equivalent: the same call sequence yields the same grants, waits,
// wounds, and deadlock denials (see quick_test.go).
//
// Concurrency contract: calls about different transactions may run
// concurrently; the lifecycle calls of one transaction (its Acquires
// and its final Release) must be serialized by the caller. Callers park
// transactions whose requests are queued and resume them when Release
// reports the requests as granted.
package lock

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"fragdb/internal/fragments"
	"fragdb/internal/txn"
)

// Mode is a lock mode.
type Mode int

// Lock modes: Shared for reads, Exclusive for writes.
const (
	Shared Mode = iota
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// ErrDeadlock is returned by Acquire when queueing the request would
// create a cycle in the waits-for graph.
var ErrDeadlock = errors.New("lock: deadlock detected")

// MaxShards bounds the shard count (the owner registry tracks shard
// membership in a 64-bit mask).
const MaxShards = 64

// Grant identifies a queued request that has just been granted by a
// Release call.
type Grant struct {
	Txn    txn.ID
	Object fragments.ObjectID
	Mode   Mode
}

type request struct {
	id   txn.ID
	mode Mode
}

type entry struct {
	holders map[txn.ID]Mode
	queue   []request
}

// TraceEvent classifies a lock-manager occurrence reported to the
// OnEvent observer.
type TraceEvent int

// The observable occurrences. Only blocked paths are reported —
// immediately granted requests stay silent so the uncontended hot path
// pays nothing for observation.
const (
	// TraceWait: the request queued behind a conflicting holder.
	TraceWait TraceEvent = iota
	// TraceGrant: a previously queued request was granted by a release.
	TraceGrant
	// TraceDeny: the request was refused by deadlock detection.
	TraceDeny
)

// traceRec is a deferred OnEvent emission: observer calls happen after
// the shard mutexes are dropped, so the observer may be slow (or take
// its own locks) without extending the manager's critical sections.
type traceRec struct {
	id   txn.ID
	o    fragments.ObjectID
	mode Mode
	ev   TraceEvent
}

// lockShard is one slice of the lock table. All fields are guarded by
// mu; cross-shard operations take multiple shard mutexes in ascending
// shard-index order (see lockAll/lockMask).
type lockShard struct {
	mu    sync.Mutex
	table map[fragments.ObjectID]*entry
	// held[t] is the set of objects in this shard on which t holds a lock.
	held map[txn.ID]map[fragments.ObjectID]struct{}
	// waiting[t] is the object in this shard t is queued on (a
	// transaction waits on at most one request at a time, globally).
	waiting map[txn.ID]fragments.ObjectID
}

// Manager is a lock table for one node, internally sharded.
type Manager struct {
	shards  []*lockShard
	shardOf func(fragments.ObjectID) int

	// ownerMu guards owners. It is only ever taken while holding shard
	// mutexes or while holding none, never the other way around, so the
	// lock order shard → ownerMu is acyclic.
	ownerMu sync.Mutex
	// owners[t] is the bitmask of shards where t holds or queues a lock
	// — the shards Release must visit.
	owners map[txn.ID]uint64

	// OnEvent, when non-nil, observes blocked-path occurrences (waits,
	// deferred grants, deadlock denials). The engine installs its
	// instrumentation funnel here; must not call back into the Manager.
	// Events are emitted after internal mutexes are dropped.
	OnEvent func(id txn.ID, o fragments.ObjectID, mode Mode, ev TraceEvent)
}

// NewManager returns an empty single-shard lock table — the exact
// behavior of the historical unsharded manager.
func NewManager() *Manager { return NewSharded(1, nil) }

// NewSharded returns an empty lock table split into k shards. shardOf
// maps an object to its shard index in [0, k); nil selects an FNV-1a
// hash of the object id. Engines pass a fragment-derived function so
// all objects of one fragment land on one shard. k is clamped to
// [1, MaxShards].
func NewSharded(k int, shardOf func(fragments.ObjectID) int) *Manager {
	if k < 1 {
		k = 1
	}
	if k > MaxShards {
		k = MaxShards
	}
	m := &Manager{
		shards: make([]*lockShard, k),
		owners: make(map[txn.ID]uint64),
	}
	for i := range m.shards {
		m.shards[i] = &lockShard{
			table:   make(map[fragments.ObjectID]*entry),
			held:    make(map[txn.ID]map[fragments.ObjectID]struct{}),
			waiting: make(map[txn.ID]fragments.ObjectID),
		}
	}
	if shardOf == nil {
		shardOf = func(o fragments.ObjectID) int { return HashShard(string(o), k) }
	}
	m.shardOf = shardOf
	return m
}

// HashShard maps a string key onto [0, k) with FNV-1a — the default
// object-to-shard and the engines' fragment-to-shard function, shared
// so tests and vacuity guards can predict placement.
func HashShard(key string, k int) int {
	if k <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(k))
}

// ShardCount reports the number of shards.
func (m *Manager) ShardCount() int { return len(m.shards) }

// ShardOf reports the shard index an object maps to.
func (m *Manager) ShardOf(o fragments.ObjectID) int {
	i := m.shardOf(o)
	if i < 0 || i >= len(m.shards) {
		return 0
	}
	return i
}

// lockAll acquires every shard mutex in ascending shard-index order —
// the canonical cross-shard ordering (deadlock-freedom of the manager
// itself is analyzable because every multi-shard path uses it).
func (m *Manager) lockAll() {
	for i := 0; i < len(m.shards); i++ {
		m.shards[i].mu.Lock()
	}
}

// unlockAll releases every shard mutex.
func (m *Manager) unlockAll() {
	for i := 0; i < len(m.shards); i++ {
		m.shards[i].mu.Unlock()
	}
}

// lockMask acquires the mutexes of the shards named in mask, in
// ascending shard-index order.
func (m *Manager) lockMask(mask uint64) {
	for i := 0; i < len(m.shards); i++ {
		if mask&(1<<uint(i)) != 0 {
			m.shards[i].mu.Lock()
		}
	}
}

// unlockMask releases the mutexes of the shards named in mask.
func (m *Manager) unlockMask(mask uint64) {
	for i := 0; i < len(m.shards); i++ {
		if mask&(1<<uint(i)) != 0 {
			m.shards[i].mu.Unlock()
		}
	}
}

// setOwnerBit records that id has state (held or queued) in shard si.
// Callers hold si's mutex; ownerMu nests inside shard mutexes.
func (m *Manager) setOwnerBit(id txn.ID, si int) {
	m.ownerMu.Lock()
	m.owners[id] |= 1 << uint(si)
	m.ownerMu.Unlock()
}

// takeOwnerMask removes and returns id's shard-membership mask.
func (m *Manager) takeOwnerMask(id txn.ID) uint64 {
	m.ownerMu.Lock()
	mask := m.owners[id]
	delete(m.owners, id)
	m.ownerMu.Unlock()
	return mask
}

func (s *lockShard) entryFor(o fragments.ObjectID) *entry {
	e, ok := s.table[o]
	if !ok {
		e = &entry{holders: make(map[txn.ID]Mode)}
		s.table[o] = e
	}
	return e
}

func (s *lockShard) markHeld(id txn.ID, o fragments.ObjectID) {
	set, ok := s.held[id]
	if !ok {
		set = make(map[fragments.ObjectID]struct{})
		s.held[id] = set
	}
	set[o] = struct{}{}
}

// compatible reports whether a request by id with the given mode can be
// granted given the current holders of e.
func compatible(e *entry, id txn.ID, mode Mode) bool {
	for holder, hm := range e.holders {
		if holder == id {
			continue // self-compatibility handled by caller (upgrade)
		}
		if mode == Exclusive || hm == Exclusive {
			return false
		}
	}
	return true
}

// queuedAhead reports whether granting (id, mode) immediately would
// bypass an earlier queued request it conflicts with. Shared requests
// may not jump over a queued Exclusive (writer starvation guard).
func queuedAhead(e *entry, id txn.ID, mode Mode) bool {
	for _, r := range e.queue {
		if r.id == id {
			continue
		}
		if mode == Exclusive || r.mode == Exclusive {
			return true
		}
	}
	return false
}

// Acquire requests a lock on o for transaction id. It returns
// (true, nil) if the lock is granted immediately, (false, nil) if the
// request was queued (the caller must park the transaction until a
// Release reports the grant), and (false, ErrDeadlock) if queueing
// would deadlock (the request is not queued; the caller should abort
// the transaction).
//
// Re-acquiring a held lock is a no-op; a Shared holder requesting
// Exclusive upgrades in place when it is the only holder, otherwise the
// upgrade queues (and is deadlock-checked) like any other request.
func (m *Manager) Acquire(id txn.ID, o fragments.ObjectID, mode Mode) (bool, error) {
	return m.acquire(id, o, mode, true)
}

// AcquirePriority is Acquire for a request that must never be refused:
// a request that would wait is queued even when it closes a waits-for
// cycle. It reports whether the lock was granted immediately. The
// caller owns the cycle's resolution — the engine uses it for committed
// quasi-transactions, which outrank local transactions (paper Section
// 4) and whose cycle partners abort on their own (timeouts, wounds).
func (m *Manager) AcquirePriority(id txn.ID, o fragments.ObjectID, mode Mode) bool {
	granted, _ := m.acquire(id, o, mode, false)
	return granted
}

func (m *Manager) acquire(id txn.ID, o fragments.ObjectID, mode Mode, checkDeadlock bool) (bool, error) {
	si := m.ShardOf(o)
	s := m.shards[si]
	// Fast path: an immediate grant needs only the object's own shard.
	s.mu.Lock()
	if m.tryGrantLocked(s, si, id, o, mode) {
		s.mu.Unlock()
		return true, nil
	}
	s.mu.Unlock()
	// Slow path: the request would wait, so deadlock detection needs the
	// global waits-for graph — take every shard (ascending order) and
	// re-evaluate, since the shard may have changed in the gap.
	m.lockAll()
	if m.tryGrantLocked(s, si, id, o, mode) {
		m.unlockAll()
		return true, nil
	}
	if checkDeadlock && m.wouldDeadlockLocked(id, o, mode) {
		m.unlockAll()
		m.emit(traceRec{id, o, mode, TraceDeny})
		return false, ErrDeadlock
	}
	e := s.entryFor(o)
	e.queue = append(e.queue, request{id: id, mode: mode})
	s.waiting[id] = o
	m.setOwnerBit(id, si)
	m.unlockAll()
	m.emit(traceRec{id, o, mode, TraceWait})
	return false, nil
}

// tryGrantLocked attempts an immediate grant and reports whether it
// succeeded (including the already-sufficient and upgrade-in-place
// cases). Caller holds shard s's mutex.
func (m *Manager) tryGrantLocked(s *lockShard, si int, id txn.ID, o fragments.ObjectID, mode Mode) bool {
	e := s.entryFor(o)
	if hm, ok := e.holders[id]; ok {
		if hm == Exclusive || mode == Shared {
			return true // already sufficient
		}
		// Upgrade S -> X in place when sole holder.
		if len(e.holders) == 1 {
			e.holders[id] = Exclusive
			return true
		}
		return false
	}
	if compatible(e, id, mode) && !queuedAhead(e, id, mode) {
		e.holders[id] = mode
		s.markHeld(id, o)
		m.setOwnerBit(id, si)
		return true
	}
	return false
}

// emit delivers a deferred observer event (no internal locks held).
func (m *Manager) emit(r traceRec) {
	if m.OnEvent != nil {
		m.OnEvent(r.id, r.o, r.mode, r.ev)
	}
}

// entryAt resolves an object's entry. Caller holds all shard mutexes.
func (m *Manager) entryAt(o fragments.ObjectID) *entry {
	return m.shards[m.ShardOf(o)].table[o]
}

// waitingOf resolves the object a transaction is queued on, if any.
// Caller holds all shard mutexes.
func (m *Manager) waitingOf(id txn.ID) (fragments.ObjectID, bool) {
	for i := 0; i < len(m.shards); i++ {
		if o, ok := m.shards[i].waiting[id]; ok {
			return o, true
		}
	}
	return "", false
}

// wouldDeadlockLocked checks whether blocking id on object o (with the
// given mode) closes a cycle in the waits-for graph. Caller holds all
// shard mutexes (the graph spans shards).
func (m *Manager) wouldDeadlockLocked(id txn.ID, o fragments.ObjectID, mode Mode) bool {
	// id would wait for: current incompatible holders of o, plus queued
	// requests it cannot bypass. We approximate the latter by the
	// holders only and the existing queue's transitive waits; this is
	// the standard conservative waits-for construction.
	visited := make(map[txn.ID]bool)
	var stack []txn.ID
	push := func(t txn.ID) {
		if t != id && !visited[t] {
			visited[t] = true
			stack = append(stack, t)
		}
	}
	e := m.entryAt(o)
	for holder, hm := range e.holders {
		if holder == id {
			continue
		}
		if mode == Exclusive || hm == Exclusive {
			push(holder)
		}
	}
	for _, r := range e.queue {
		if mode == Exclusive || r.mode == Exclusive {
			push(r.id)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == id {
			return true
		}
		// cur waits on some object; it waits for that object's holders
		// and conflicting queued requests ahead of it.
		wo, ok := m.waitingOf(cur)
		if !ok {
			continue
		}
		we := m.entryAt(wo)
		var curMode Mode
		for _, r := range we.queue {
			if r.id == cur {
				curMode = r.mode
				break
			}
		}
		for holder, hm := range we.holders {
			if holder == cur {
				continue
			}
			if curMode == Exclusive || hm == Exclusive {
				if holder == id {
					return true
				}
				push(holder)
			}
		}
		for _, r := range we.queue {
			if r.id == cur {
				break // only requests ahead of cur
			}
			if curMode == Exclusive || r.mode == Exclusive {
				if r.id == id {
					return true
				}
				push(r.id)
			}
		}
	}
	return false
}

// Release frees every lock held by id, removes any queued request of
// id, and returns the requests that become granted as a result, in
// grant order. The returned transactions' locks are already installed;
// the caller resumes them.
//
// Objects are released in globally sorted object order regardless of
// shard placement, so the grant sequence is identical to the 1-shard
// manager's.
func (m *Manager) Release(id txn.ID) []Grant {
	mask := m.takeOwnerMask(id)
	if mask == 0 {
		return nil
	}
	m.lockMask(mask)
	// Remove a pending queued request, if any.
	for i := 0; i < len(m.shards); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		s := m.shards[i]
		o, ok := s.waiting[id]
		if !ok {
			continue
		}
		e := s.table[o]
		for qi, r := range e.queue {
			if r.id == id {
				e.queue = append(e.queue[:qi], e.queue[qi+1:]...)
				break
			}
		}
		delete(s.waiting, id)
	}
	// Collect held objects across the involved shards and release in
	// global sorted order.
	var objs []fragments.ObjectID
	for i := 0; i < len(m.shards); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		s := m.shards[i]
		for o := range s.held[id] {
			objs = append(objs, o)
		}
		delete(s.held, id)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	var grants []Grant
	var events []traceRec
	for _, o := range objs {
		s := m.shards[m.ShardOf(o)]
		e := s.table[o]
		delete(e.holders, id)
		grants = append(grants, m.promoteLocked(s, o, e, &events)...)
	}
	m.unlockMask(mask)
	for _, r := range events {
		m.emit(r)
	}
	return grants
}

// promoteLocked grants queued requests on o that are now compatible, in
// FIFO order, stopping at the first incompatible request. Caller holds
// the object's shard mutex; observer events are appended to events for
// emission after the mutexes drop.
func (m *Manager) promoteLocked(s *lockShard, o fragments.ObjectID, e *entry, events *[]traceRec) []Grant {
	si := m.ShardOf(o)
	var grants []Grant
	for len(e.queue) > 0 {
		r := e.queue[0]
		if hm, ok := e.holders[r.id]; ok && r.mode == Exclusive && hm == Shared {
			// queued upgrade
			if len(e.holders) != 1 {
				break
			}
			e.holders[r.id] = Exclusive
		} else if compatible(e, r.id, r.mode) {
			e.holders[r.id] = r.mode
			s.markHeld(r.id, o)
			m.setOwnerBit(r.id, si)
		} else {
			break
		}
		e.queue = e.queue[1:]
		delete(s.waiting, r.id)
		*events = append(*events, traceRec{r.id, o, r.mode, TraceGrant})
		grants = append(grants, Grant{Txn: r.id, Object: o, Mode: r.mode})
	}
	return grants
}

// Holds reports whether id currently holds a lock on o of at least the
// given mode.
func (m *Manager) Holds(id txn.ID, o fragments.ObjectID, mode Mode) bool {
	s := m.shards[m.ShardOf(o)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.table[o]
	if !ok {
		return false
	}
	hm, ok := e.holders[id]
	return ok && (hm == Exclusive || mode == Shared)
}

// Holders returns the transactions currently holding a lock on o, in
// deterministic order.
func (m *Manager) Holders(o fragments.ObjectID) []txn.ID {
	s := m.shards[m.ShardOf(o)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.table[o]
	if !ok {
		return nil
	}
	out := make([]txn.ID, 0, len(e.holders))
	for id := range e.holders {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Waiting reports whether id has a queued (blocked) request.
func (m *Manager) Waiting(id txn.ID) bool {
	for i := 0; i < len(m.shards); i++ {
		s := m.shards[i]
		s.mu.Lock()
		_, ok := s.waiting[id]
		s.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}

// NumHeld reports how many objects id holds locks on.
func (m *Manager) NumHeld(id txn.ID) int {
	total := 0
	for i := 0; i < len(m.shards); i++ {
		s := m.shards[i]
		s.mu.Lock()
		total += len(s.held[id])
		s.mu.Unlock()
	}
	return total
}

// String renders a compact dump of the lock table for debugging.
func (m *Manager) String() string {
	m.lockAll()
	defer m.unlockAll()
	out := ""
	for i := 0; i < len(m.shards); i++ {
		for o, e := range m.shards[i].table {
			if len(e.holders) == 0 && len(e.queue) == 0 {
				continue
			}
			out += fmt.Sprintf("%s: holders=%v queue=%v\n", o, e.holders, e.queue)
		}
	}
	return out
}
