package main

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/rtnet"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

const (
	// tcpNodes is the tcp-loopback cluster size.
	tcpNodes = 3
	// tcpRate is the open loop's offered rate, transactions per second,
	// round-robin across the nodes.
	tcpRate = 1000
	// tcpSetupRepeats is how many times a run builds its TCP cluster.
	tcpSetupRepeats = 5
	// tcpOpLatency and tcpTxnTimeout are the deployment defaults
	// (internal/deploy).
	tcpOpLatency  = 100 * time.Microsecond
	tcpTxnTimeout = 2 * time.Second
	// tcpIdleChunk is one idle chunk of the TCP cluster.
	tcpIdleChunk = 50 * time.Millisecond
	// tcpProbes partition probes of tcpProbe each follow the measured
	// phase; converge_ms is their median.
	tcpProbes = 5
	tcpProbe  = 200 * time.Millisecond
	// tcpWait bounds every wait for connectivity, quiescence or
	// convergence; reaching it fails the run.
	tcpWait = 30 * time.Second
	// pollInterval is how often convergence is polled.
	pollInterval = 500 * time.Microsecond
)

var errLoopStopped = errors.New("tcp-loopback: node loop stopped")

// execGate hands deliveries to a node's loop once the loop exists: the
// loop needs the cluster's scheduler, the cluster needs the transport,
// and the transport needs the executor (as in internal/deploy).
type execGate struct {
	mu   sync.Mutex
	loop *rtnet.Loop
}

func (e *execGate) run(fn func()) bool {
	e.mu.Lock()
	l := e.loop
	e.mu.Unlock()
	return l != nil && l.Inject(fn)
}

func (e *execGate) set(l *rtnet.Loop) {
	e.mu.Lock()
	e.loop = l
	e.mu.Unlock()
}

// tcpNode is one node of the loopback cluster, assembled as
// deploy.NewTCP assembles a process: an rtnet.TCP transport, a
// single-node engine and an rtnet.Loop pacing its scheduler.
type tcpNode struct {
	id   int
	tcp  *rtnet.TCP
	cl   *core.Cluster
	loop *rtnet.Loop
}

// inspect runs fn on the node's loop and waits for it.
func (n *tcpNode) inspect(fn func()) error {
	done := make(chan struct{})
	if !n.loop.Inject(func() {
		defer close(done)
		fn()
	}) {
		return errLoopStopped
	}
	<-done
	return nil
}

// tcpCluster is the three-node loopback cluster and its instruments.
type tcpCluster struct {
	nodes []*tcpNode
	tr    *tracer
	// digests receives node ids that sent a gossip digest (the heal is
	// aligned with one); sends never block.
	digests chan netsim.NodeID
}

func (c *tcpCluster) close() {
	for _, n := range c.nodes {
		if n.tcp != nil {
			n.tcp.Close()
		}
		if n.loop != nil {
			n.loop.Stop()
		}
	}
}

// buildTCP listens on three ephemeral loopback ports, starts a node on
// each and waits until every node's outbound connections are up.
func buildTCP(seed int64, s *schema, ws *wireStats, tr *tracer, installed func(txn.ID)) (*tcpCluster, error) {
	c := &tcpCluster{tr: tr, digests: make(chan netsim.NodeID, 1)}
	lns := make([]net.Listener, s.n)
	addrs := make([]string, s.n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("tcp-loopback: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for i := range lns {
		n, err := c.startNode(i, seed, s, addrs, lns[i], ws, installed)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	deadline := time.Now().Add(tcpWait)
	for !c.connected() {
		if time.Now().After(deadline) {
			c.close()
			return nil, errors.New("tcp-loopback: peers did not connect")
		}
		time.Sleep(pollInterval)
	}
	return c, nil
}

func (c *tcpCluster) startNode(i int, seed int64, s *schema, addrs []string, ln net.Listener, ws *wireStats, installed func(txn.ID)) (*tcpNode, error) {
	tp, err := rtnet.NewTCP(rtnet.TCPConfig{Local: netsim.NodeID(i), Addrs: addrs, Listener: ln})
	if err != nil {
		return nil, err
	}
	n := &tcpNode{id: i, tcp: tp}
	gate := &execGate{}
	mt := &meteredTransport{
		inner: rtnet.ExecTransport{Transport: tp, Exec: gate.run},
		n:     s.n,
		stats: ws,
		tr:    c.tr,
		track: func(netsim.NodeID) int { return i },
		onDigest: func(from netsim.NodeID) {
			select {
			case c.digests <- from:
			default:
			}
		},
	}
	n.cl = core.NewCluster(core.Config{
		N:              s.n,
		Option:         core.UnrestrictedReads,
		Seed:           seed,
		OpLatency:      simtime.Duration(tcpOpLatency),
		TxnTimeout:     simtime.Duration(tcpTxnTimeout),
		LabeledMetrics: c.tr != nil,
		Transport:      mt,
		SingleNode:     true,
		LocalNode:      netsim.NodeID(i),
	})
	fail := func(err error) (*tcpNode, error) {
		tp.Close()
		return nil, err
	}
	if err := s.declare(n.cl); err != nil {
		return fail(err)
	}
	if err := n.cl.Start(); err != nil {
		return fail(err)
	}
	if err := s.load(n.cl); err != nil {
		return fail(err)
	}
	n.cl.OnQuasiApplied(func(_ netsim.NodeID, q txn.Quasi) { installed(q.Txn) })
	n.loop = rtnet.NewLoop(n.cl.Sched())
	gate.set(n.loop)
	n.loop.Start()
	return n, nil
}

func (c *tcpCluster) connected() bool {
	for _, n := range c.nodes {
		for j := range c.nodes {
			if !n.tcp.Reachable(netsim.NodeID(n.id), netsim.NodeID(j)) {
				return false
			}
		}
	}
	return true
}

// converged reports whether every node is quiescent and has delivered
// the same prefix of every origin's broadcast stream.
func (c *tcpCluster) converged() (bool, error) {
	var first []uint64
	for _, n := range c.nodes {
		var ok bool
		prefixes := make([]uint64, len(c.nodes))
		if err := n.inspect(func() {
			ok = n.cl.Converged()
			for o := range prefixes {
				prefixes[o] = n.cl.Node(netsim.NodeID(n.id)).Broadcaster().Prefix(netsim.NodeID(o))
			}
		}); err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		if first == nil {
			first = prefixes
		} else if !reflect.DeepEqual(first, prefixes) {
			return false, nil
		}
	}
	return true, nil
}

// waitConverged polls until the cluster converges.
func (c *tcpCluster) waitConverged() error {
	deadline := time.Now().Add(tcpWait)
	for {
		ok, err := c.converged()
		if err != nil || ok {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("tcp-loopback: cluster did not converge")
		}
		time.Sleep(pollInterval)
	}
}

// split drops traffic between node 2 and the other two, in both
// directions, or heals that partition.
func (c *tcpCluster) split(on bool) {
	last := c.nodes[len(c.nodes)-1]
	for _, n := range c.nodes[:len(c.nodes)-1] {
		n.tcp.SetPeerDrop(netsim.NodeID(last.id), on)
		last.tcp.SetPeerDrop(netsim.NodeID(n.id), on)
	}
}

// tcpDriver generates the open loop and records what it measures.
type tcpDriver struct {
	c     *tcpCluster
	s     *schema
	g     *gen
	l     *txnLog
	ws    *wireStats
	epoch time.Time

	mu        sync.Mutex
	injectLag []float64 // µs, measured phase
	late      []float64 // ms, measured phase
}

func (d *tcpDriver) sinceEpoch() int64 { return int64(time.Since(d.epoch)) }

// offer runs the open loop for dur at tcpRate on the calling goroutine,
// the only one generating load, and returns when every transaction was
// handed to its node. Each transaction is timed from when it was due.
func (d *tcpDriver) offer(dur time.Duration, ph phase) error {
	total := int(dur.Seconds() * tcpRate)
	interval := time.Second / tcpRate
	start := time.Now()
	genTrack := len(d.c.nodes)
	for k := 0; k < total; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		home := k % len(d.c.nodes)
		node := d.c.nodes[home]
		in := d.g.next(home)
		dueNs := int64(due.Sub(d.epoch))
		late := float64(time.Since(due)) / 1e6
		d.l.submitted(ph)
		tok := d.c.tr.begin(genTrack, spInject, 0)
		injected := time.Now()
		ok := node.loop.Inject(func() {
			lag := float64(time.Since(injected)) / 1e3
			if ph == phaseMeasured {
				d.mu.Lock()
				d.injectLag = append(d.injectLag, lag)
				d.late = append(d.late, late)
				d.mu.Unlock()
			}
			sub := d.c.tr.begin(home, spSubmit, 0)
			node.cl.Node(netsim.NodeID(home)).Submit(d.s.spec(in, d.c.tr, home), func(r core.TxnResult) {
				d.l.done(r, ph, dueNs, d.sinceEpoch())
			})
			d.c.tr.end(home, sub)
		})
		d.c.tr.end(genTrack, tok)
		if !ok {
			return errLoopStopped
		}
	}
	return nil
}

// quiesce waits until every offered transaction has an outcome.
func (d *tcpDriver) quiesce() error {
	deadline := time.Now().Add(tcpWait)
	for d.l.inFlight() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("tcp-loopback: %d transactions never finished", d.l.inFlight())
		}
		time.Sleep(pollInterval)
	}
	return nil
}

// readCounters sums engine, scheduler and transport counters over the
// nodes, reading engine state on each node's loop.
func (d *tcpDriver) readCounters() (engineCounts, uint64, tcpCounts, error) {
	var e engineCounts
	var events uint64
	var t tcpCounts
	for _, n := range d.c.nodes {
		if err := n.inspect(func() {
			readEngine(&e, n.cl)
			events += n.cl.Sched().Processed()
		}); err != nil {
			return e, 0, t, err
		}
		st := n.tcp.Stats()
		t.frames += st.FramesSent.Load()
		t.bytes += st.BytesSent.Load()
		t.sendDropped += st.SendDropped.Load()
	}
	return e, events, t, nil
}

// healAligned heals the split right after node 2 sends a gossip digest,
// so the next digest that triggers repair is a full gossip period away
// on every run, and returns the ms until the cluster converged.
func (d *tcpDriver) healAligned() (float64, error) {
	last := netsim.NodeID(len(d.c.nodes) - 1)
	timeout := time.After(tcpWait)
wait:
	for {
		select {
		case from := <-d.c.digests:
			if from == last {
				break wait
			}
		case <-timeout:
			return 0, errors.New("tcp-loopback: no gossip digest from the split node")
		}
	}
	d.c.split(false)
	healed := time.Now()
	if err := d.c.waitConverged(); err != nil {
		return 0, err
	}
	return float64(time.Since(healed)) / 1e6, nil
}

// audit checks that every replica holds the same database and that
// every fragment sums to 0 on each.
func (d *tcpDriver) audit() error {
	snaps := make([]map[fragments.ObjectID]any, len(d.c.nodes))
	for i, n := range d.c.nodes {
		var err error
		if ierr := n.inspect(func() {
			st := n.cl.Node(netsim.NodeID(n.id)).Store()
			snaps[i] = st.Snapshot()
			err = d.s.checkSums(n.id, st)
		}); ierr != nil {
			return ierr
		}
		if err != nil {
			return err
		}
	}
	for i := 1; i < len(snaps); i++ {
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			return fmt.Errorf("replicas 0 and %d differ", i)
		}
	}
	cls := make([]*core.Cluster, len(d.c.nodes))
	for i, n := range d.c.nodes {
		cls[i] = n.cl
	}
	return checkOutcomes(d.l, cls)
}

func runTCPLoopback(o options, traced bool, share float64) (*runStats, error) {
	return tcpLoopback(o.seed, time.Duration(float64(o.seconds)*share*float64(time.Second)), traced)
}

// tcpLoopback is the real-wire workload: three nodes in this process
// over loopback TCP, an open loop at tcpRate for the measured phase,
// then a partition probe isolating node 2 and an idle phase.
func tcpLoopback(seed int64, measure time.Duration, traced bool) (*runStats, error) {
	s := newSchema(tcpNodes)
	rs := &runStats{n: s.n, wallClock: true}
	d := &tcpDriver{s: s, g: newGen(seed, s), l: newTxnLog(s.n), epoch: time.Now()}
	rs.log = d.l
	var tr *tracer
	if traced {
		d.ws = &wireStats{}
		tr = newTracer(s.n + 1)
	}
	installed := func(id txn.ID) { d.l.installed(id, d.sinceEpoch()) }
	for i := 0; i < tcpSetupRepeats; i++ {
		if d.c != nil {
			d.c.close()
		}
		start := time.Now()
		c, err := buildTCP(seed, s, d.ws, tr, installed)
		if err != nil {
			return nil, err
		}
		rs.setup = append(rs.setup, time.Since(start).Seconds())
		d.c = c
	}
	defer d.c.close()

	e0, ev0, t0, err := d.readCounters()
	if err != nil {
		return nil, err
	}
	w0 := d.ws.snapshot()
	tr.setActive(true)
	m := startMeter()
	if err := d.offer(measure, phaseMeasured); err != nil {
		return nil, err
	}
	if err := d.quiesce(); err != nil {
		return nil, err
	}
	if err := d.c.waitConverged(); err != nil {
		return nil, err
	}
	rs.measured = m.stop()
	tr.setActive(false)
	rs.mOffered, rs.mCommitted = d.l.offered, d.l.committed
	rs.rates = []float64{float64(rs.mCommitted) / rs.measured.wall.Seconds()}
	e1, ev1, t1, err := d.readCounters()
	if err != nil {
		return nil, err
	}
	rs.engine = e1.minus(e0)
	rs.events = ev1 - ev0
	rs.tcp = tcpCounts{t1.frames - t0.frames, t1.bytes - t0.bytes, t1.sendDropped - t0.sendDropped}
	rs.wire = d.ws.snapshot().minus(w0)
	rs.heapBytes = liveHeap()

	for i := 0; i < tcpProbes; i++ {
		d.c.split(true)
		if err := d.offer(tcpProbe, phasePartition); err != nil {
			return nil, err
		}
		if err := d.quiesce(); err != nil {
			return nil, err
		}
		conv, err := d.healAligned()
		if err != nil {
			return nil, err
		}
		rs.converge = append(rs.converge, conv)
	}
	measureIdle(rs, tcpIdleChunk, false, func(dur time.Duration) { time.Sleep(dur) })

	d.mu.Lock()
	rs.injectLag, rs.late = d.injectLag, d.late
	d.mu.Unlock()
	if err := finishRun(rs, d.l, d.ws, tr, d.audit); err != nil {
		return nil, err
	}
	return rs, nil
}
