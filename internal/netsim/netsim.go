// Package netsim simulates the point-to-point communication network of
// the paper's system model (Section 3.1): n nodes interconnected by
// links of arbitrary topology, subject to message delays, link
// failures, and network partitions.
//
// The simulation is deterministic: it runs on a simtime.Scheduler, and
// all delivery jitter is drawn from the scheduler's seeded random
// source. Messages between connected nodes are delivered after a
// per-link latency; messages across a severed link are silently dropped
// (higher layers — the reliable broadcast of package broadcast — are
// responsible for retransmission, exactly as the paper assumes a
// "reliable broadcast mechanism" built over an unreliable network).
package netsim

import (
	"fmt"

	"fragdb/internal/simtime"
)

// NodeID identifies a node (site) in the simulated network. Nodes are
// numbered from 0 to N()-1.
type NodeID int

// String formats the node id as "N3".
func (id NodeID) String() string { return fmt.Sprintf("N%d", int(id)) }

// Handler consumes a message delivered to a node.
type Handler func(from NodeID, payload any)

// Transport is the abstract message-passing service used by the upper
// layers (broadcast, core). Both the deterministic simulator in this
// package and the goroutine-based transport in package rtnet satisfy it.
type Transport interface {
	// N reports the number of nodes.
	N() int
	// Send transmits payload from one node to another. Delivery is
	// best-effort: partitioned or crashed destinations lose the message.
	Send(from, to NodeID, payload any)
	// SetHandler installs the delivery callback for a node. It must be
	// called before any message can be delivered to that node.
	SetHandler(node NodeID, h Handler)
	// Reachable reports whether a message sent now from a to b would be
	// delivered (possibly over multiple hops for routed transports).
	Reachable(a, b NodeID) bool
}

// LatencyFunc computes the one-way delay for a message on the link
// a->b. It is called once per message, under the deterministic RNG.
type LatencyFunc func(a, b NodeID, rng interface{ Int63n(int64) int64 }) simtime.Duration

// FixedLatency returns a LatencyFunc with constant delay d.
func FixedLatency(d simtime.Duration) LatencyFunc {
	return func(a, b NodeID, _ interface{ Int63n(int64) int64 }) simtime.Duration { return d }
}

// UniformLatency returns a LatencyFunc drawing delays uniformly from
// [lo, hi].
func UniformLatency(lo, hi simtime.Duration) LatencyFunc {
	if hi < lo {
		lo, hi = hi, lo
	}
	return func(a, b NodeID, rng interface{ Int63n(int64) int64 }) simtime.Duration {
		if hi == lo {
			return lo
		}
		return lo + simtime.Duration(rng.Int63n(int64(hi-lo)+1))
	}
}

// Stats accumulates network-level counters for an experiment run.
type Stats struct {
	// Sent counts Send calls.
	Sent uint64
	// Delivered counts messages that reached their destination handler.
	Delivered uint64
	// DroppedLink counts messages lost to a severed link.
	DroppedLink uint64
	// DroppedNode counts messages lost to a crashed endpoint.
	DroppedNode uint64
	// DroppedLoss counts messages lost to random link loss (WithLoss).
	DroppedLoss uint64
	// Bytes counts the estimated wire size of delivered messages, when
	// a SizeFunc is configured; otherwise zero.
	Bytes uint64
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the latency model. The default is a fixed 10ms.
func WithLatency(f LatencyFunc) Option { return func(n *Network) { n.latency = f } }

// WithTopology restricts direct links to the given undirected adjacency
// pairs. By default the network is a full mesh.
func WithTopology(edges [][2]NodeID) Option {
	return func(n *Network) {
		n.mesh = false
		n.adj = make([][]bool, n.n)
		for i := range n.adj {
			n.adj[i] = make([]bool, n.n)
		}
		for _, e := range edges {
			n.adj[e[0]][e[1]] = true
			n.adj[e[1]][e[0]] = true
		}
	}
}

// WithSizeFunc installs an estimator for message wire size, used only
// for the Stats.Bytes counter.
func WithSizeFunc(f func(payload any) int) Option {
	return func(n *Network) { n.sizeOf = f }
}

// WithLoss makes every link drop each message independently with the
// given probability (0 <= p < 1), drawn from the deterministic RNG.
// The reliable broadcast's anti-entropy recovers from such losses, as
// the paper's substrate assumption requires ("all messages are
// eventually delivered" is a property of the broadcast layer, not of
// the links).
func WithLoss(p float64) Option {
	return func(n *Network) { n.lossProb = p }
}

// Network is a deterministic simulated network. It is not safe for
// concurrent use; it is driven by a single simtime.Scheduler.
type Network struct {
	sched    *simtime.Scheduler
	n        int
	handlers []Handler
	latency  LatencyFunc
	sizeOf   func(any) int

	mesh     bool     // full mesh unless WithTopology was given
	adj      [][]bool // physical adjacency (static), used when !mesh
	cut      [][]bool // cut[a][b]: link administratively severed
	down     []bool   // node crashed
	lossProb float64  // per-message random drop probability

	free  []*inflight // recycled in-flight records
	stats Stats
}

// inflight is one message between Send and its delivery. Send posts it
// to the scheduler as a recycled event; it returns itself to the
// network's free list when it runs, delivered or dropped.
type inflight struct {
	nw       *Network
	from, to NodeID
	payload  any
}

// Run delivers the message. The record goes back to the free list
// first, so sends made by the handler reuse it.
func (m *inflight) Run() {
	nw, from, to, payload := m.nw, m.from, m.to, m.payload
	m.payload = nil
	nw.free = append(nw.free, m)
	nw.deliver(from, to, payload)
}

// New creates a simulated network of n nodes on the given scheduler.
func New(sched *simtime.Scheduler, n int, opts ...Option) *Network {
	if n <= 0 {
		panic("netsim: network needs at least one node")
	}
	nw := &Network{
		sched:    sched,
		n:        n,
		handlers: make([]Handler, n),
		latency:  FixedLatency(10 * simtime.Duration(1e6)), // 10ms
		mesh:     true,
		down:     make([]bool, n),
	}
	nw.cut = make([][]bool, n)
	for i := range nw.cut {
		nw.cut[i] = make([]bool, n)
	}
	for _, o := range opts {
		o(nw)
	}
	return nw
}

// N reports the number of nodes.
func (nw *Network) N() int { return nw.n }

// Scheduler returns the underlying scheduler (for timers at upper layers).
func (nw *Network) Scheduler() *simtime.Scheduler { return nw.sched }

// Stats returns a snapshot of the network counters.
func (nw *Network) Stats() Stats { return nw.stats }

// SetHandler installs the delivery callback for a node.
func (nw *Network) SetHandler(node NodeID, h Handler) {
	nw.handlers[node] = h
}

// linkOpen reports whether the direct link a-b currently carries traffic.
func (nw *Network) linkOpen(a, b NodeID) bool {
	if a == b {
		return true
	}
	if !nw.mesh && !nw.adj[a][b] {
		return false
	}
	return !nw.cut[a][b]
}

// Send transmits payload from one node to another over the direct link.
// If the link is severed or either endpoint is crashed at send time, the
// message is dropped. If the destination crashes before delivery, the
// message is also dropped. Self-sends are delivered with zero latency.
func (nw *Network) Send(from, to NodeID, payload any) {
	nw.stats.Sent++
	if nw.down[from] || nw.down[to] {
		nw.stats.DroppedNode++
		return
	}
	if !nw.linkOpen(from, to) {
		nw.stats.DroppedLink++
		return
	}
	if nw.lossProb > 0 && from != to && nw.sched.Rand().Float64() < nw.lossProb {
		nw.stats.DroppedLoss++
		return
	}
	var d simtime.Duration
	if from != to {
		d = max(nw.latency(from, to, nw.sched.Rand()), 0)
	}
	var m *inflight
	if n := len(nw.free); n > 0 {
		m = nw.free[n-1]
		nw.free = nw.free[:n-1]
	} else {
		m = &inflight{nw: nw}
	}
	m.from, m.to, m.payload = from, to, payload
	nw.sched.Post(nw.sched.Now().Add(d), m)
}

// deliver hands an arrived message to its destination's handler, or
// drops it if the destination crashed while it was in flight.
func (nw *Network) deliver(from, to NodeID, payload any) {
	if nw.down[to] {
		nw.stats.DroppedNode++
		return
	}
	h := nw.handlers[to]
	if h == nil {
		nw.stats.DroppedNode++
		return
	}
	nw.stats.Delivered++
	if nw.sizeOf != nil {
		nw.stats.Bytes += uint64(nw.sizeOf(payload))
	}
	h(from, payload)
}

// SetLink severs (up=false) or restores (up=true) the direct link a-b.
func (nw *Network) SetLink(a, b NodeID, up bool) {
	nw.cut[a][b] = !up
	nw.cut[b][a] = !up
}

// Partition splits the network into the given groups: every link between
// nodes of different groups is severed, every link within a group is
// restored. Nodes not mentioned in any group form an implicit final
// group of singletons each isolated from everyone.
func (nw *Network) Partition(groups ...[]NodeID) {
	group := make([]int, nw.n)
	for i := range group {
		group[i] = -1 - i // unique negative group per unmentioned node
	}
	for gi, g := range groups {
		for _, id := range g {
			group[id] = gi
		}
	}
	for a := 0; a < nw.n; a++ {
		for b := a + 1; b < nw.n; b++ {
			same := group[a] == group[b]
			nw.cut[a][b] = !same
			nw.cut[b][a] = !same
		}
	}
}

// Heal restores every link.
func (nw *Network) Heal() {
	for a := range nw.cut {
		for b := range nw.cut[a] {
			nw.cut[a][b] = false
		}
	}
}

// SetNodeDown crashes (down=true) or restarts (down=false) a node.
// While down, a node neither sends nor receives.
func (nw *Network) SetNodeDown(node NodeID, down bool) {
	nw.down[node] = down
}

// NodeDown reports whether the node is currently crashed.
func (nw *Network) NodeDown(node NodeID) bool { return nw.down[node] }

// Reachable reports whether b can currently be reached from a over up
// links and up nodes (multi-hop for non-mesh topologies).
func (nw *Network) Reachable(a, b NodeID) bool {
	if nw.down[a] || nw.down[b] {
		return false
	}
	if a == b {
		return true
	}
	seen := make([]bool, nw.n)
	queue := []NodeID{a}
	seen[a] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := NodeID(0); int(next) < nw.n; next++ {
			if seen[next] || nw.down[next] || !nw.linkOpen(cur, next) || cur == next {
				continue
			}
			if next == b {
				return true
			}
			seen[next] = true
			queue = append(queue, next)
		}
	}
	return false
}

// Component returns the set of nodes currently reachable from a
// (including a itself), in ascending order.
func (nw *Network) Component(a NodeID) []NodeID {
	var out []NodeID
	for b := NodeID(0); int(b) < nw.n; b++ {
		if b == a || nw.Reachable(a, b) {
			out = append(out, b)
		}
	}
	return out
}

// ScheduleSplit schedules a Partition call at virtual time t.
func (nw *Network) ScheduleSplit(t simtime.Time, groups ...[]NodeID) {
	nw.sched.At(t, func() { nw.Partition(groups...) })
}

// ScheduleHeal schedules a Heal call at virtual time t.
func (nw *Network) ScheduleHeal(t simtime.Time) {
	nw.sched.At(t, func() { nw.Heal() })
}

// ScheduleNodeDown schedules a SetNodeDown call at virtual time t, for
// fault schedules that crash and restart nodes mid-run (engines that
// also need to lose volatile state on restart pair this with their own
// recovery hook, e.g. core.Node.SimulateCrashRestart).
func (nw *Network) ScheduleNodeDown(t simtime.Time, node NodeID, down bool) {
	nw.sched.At(t, func() { nw.SetNodeDown(node, down) })
}

// AllNodes returns [0, 1, ..., n-1] as a convenience for group building.
func (nw *Network) AllNodes() []NodeID {
	out := make([]NodeID, nw.n)
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}
