package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
	"fragdb/internal/txn"
)

const (
	// simNodes is the cluster size of both simulator workloads.
	simNodes = 5
	// setupRepeats is how many times a run builds its cluster; setup_s
	// is the median, and the last cluster built is the one measured.
	setupRepeats = 9
	// rateSlice is how many commits of a measured phase are timed
	// together; txn_per_s is the median slice's rate, so a collection
	// or a scheduling hiccup moves one slice, not the run.
	rateSlice = 2000
	// inFlightPerNode is sim-commit's closed-loop depth per node.
	inFlightPerNode = 4
	// simCommitRate sizes sim-commit's measured phase: committed
	// transactions per second of --seconds, about what the engine
	// simulates per wall second on a 2-core machine.
	simCommitRate = 8000
	// healOffset places every simulated heal just after a gossip tick
	// (ticks fall on multiples of the gossip interval), so converge_ms
	// measures repair, not where the heal fell in the gossip period.
	healOffset = time.Millisecond
	// settleLimit bounds, in virtual time, every wait for quiescence or
	// convergence; reaching it fails the run.
	settleLimit = 10 * time.Minute
)

var (
	// The partition both simulator workloads use: {0,1,2} | {3,4}.
	sideA = []netsim.NodeID{0, 1, 2}
	sideB = []netsim.NodeID{3, 4}
)

func netNode(i int) netsim.NodeID { return netsim.NodeID(i) }

// linkLatencies gives every link a one-way latency drawn from the seed
// in [9 ms, 11 ms], fixed for the run so each link stays FIFO.
func linkLatencies(seed int64, n int) netsim.LatencyFunc {
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	lat := make([][]simtime.Duration, n)
	for a := range lat {
		lat[a] = make([]simtime.Duration, n)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d := 9*time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Millisecond)+1))
			lat[a][b], lat[b][a] = d, d
		}
	}
	return func(a, b netsim.NodeID, _ interface{ Int63n(int64) int64 }) simtime.Duration { return lat[a][b] }
}

// simCluster is one simulated cluster whose netsim transport is wrapped
// by the benchmark's metered transport.
type simCluster struct {
	cl *core.Cluster
	nw *netsim.Network
	tr *tracer
}

// buildSim builds, starts and loads a cluster. prepare, if set, runs
// after the schema is declared and before Start.
func buildSim(seed int64, s *schema, cfg core.Config, ws *wireStats, tr *tracer, prepare func(*core.Cluster)) (*simCluster, error) {
	mt := &meteredTransport{n: s.n, stats: ws, tr: tr, track: func(netsim.NodeID) int { return 0 }}
	cfg.N = s.n
	cfg.Seed = seed
	cfg.Transport = mt
	cfg.LabeledMetrics = tr != nil
	cl := core.NewCluster(cfg)
	nw := netsim.New(cl.Sched(), s.n, netsim.WithLatency(linkLatencies(seed, s.n)))
	mt.inner = nw
	if err := s.declare(cl); err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(cl)
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	if err := s.load(cl); err != nil {
		return nil, err
	}
	return &simCluster{cl: cl, nw: nw, tr: tr}, nil
}

// setupSim builds the cluster setupRepeats times, timing each build.
func setupSim(rs *runStats, build func() (*simCluster, error)) (*simCluster, error) {
	var sc *simCluster
	for i := 0; i < setupRepeats; i++ {
		if sc != nil {
			sc.cl.Shutdown()
		}
		start := time.Now()
		c, err := build()
		if err != nil {
			return nil, err
		}
		rs.setup = append(rs.setup, time.Since(start).Seconds())
		sc = c
	}
	return sc, nil
}

// step runs one scheduler event inside a step span.
func (sc *simCluster) step() {
	tok := sc.tr.begin(0, spStep, 0)
	sc.cl.Sched().Step()
	sc.tr.end(0, tok)
}

// runTo runs every event due by virtual time t, then sets the clock to t.
func (sc *simCluster) runTo(t simtime.Time) {
	s := sc.cl.Sched()
	for {
		next, ok := s.NextEventTime()
		if !ok || next > t {
			break
		}
		sc.step()
	}
	s.RunUntil(t)
}

// stepUntil steps until cond holds, failing after settleLimit of
// virtual time.
func (sc *simCluster) stepUntil(what string, cond func() bool) error {
	deadline := sc.cl.Now().Add(settleLimit)
	for !cond() {
		if sc.cl.Now() > deadline || sc.cl.Sched().Pending() == 0 {
			return fmt.Errorf("%s: not reached within %v of virtual time", what, settleLimit)
		}
		sc.step()
	}
	return nil
}

// converged is the cluster's end state: quiescent, every stream
// delivered everywhere, and every replica of every fragment identical.
func (sc *simCluster) converged() bool {
	return sc.cl.Converged() && sc.cl.CheckMutualConsistency() == nil
}

// healAndConverge heals the network just after the next gossip tick and
// returns the virtual ms until the cluster converged.
func (sc *simCluster) healAndConverge() (float64, error) {
	gi := simtime.Time(sc.cl.Config().GossipInterval)
	healAt := (sc.cl.Now()/gi+1)*gi + simtime.Time(healOffset)
	sc.runTo(healAt)
	sc.nw.Heal()
	if err := sc.stepUntil("convergence after heal", sc.converged); err != nil {
		return 0, err
	}
	return float64(sc.cl.Now()-healAt) / 1e6, nil
}

// simIdleChunk is one idle chunk of a simulated cluster, in virtual
// time.
const simIdleChunk = 10 * time.Second

// measureIdle runs the converged cluster idle and charges the cost to
// the idle metrics.
func (sc *simCluster) measureIdle(rs *runStats) {
	measureIdle(rs, simIdleChunk, true, func(d time.Duration) { sc.runTo(sc.cl.Now().Add(d)) })
}

// audit is the correctness gate of a simulated run.
func (sc *simCluster) audit(s *schema, l *txnLog) error {
	if err := sc.cl.CheckMutualConsistency(); err != nil {
		return err
	}
	if err := sc.cl.Recorder().CheckFragmentwise(); err != nil {
		return err
	}
	for i := 0; i < s.n; i++ {
		if err := s.checkSums(i, sc.cl.Node(netNode(i)).Store()); err != nil {
			return err
		}
	}
	return checkOutcomes(l, []*core.Cluster{sc.cl})
}

// checkOutcomes verifies that every submission reported exactly one
// outcome and that the engine's own counters agree with the callbacks.
func checkOutcomes(l *txnLog, cls []*core.Cluster) error {
	var offered, committed uint64
	for _, cl := range cls {
		offered += cl.Stats().Offered.Load()
		committed += cl.Stats().Committed.Load()
	}
	switch {
	case l.committed+l.failed != l.offered:
		return fmt.Errorf("%d submissions, but %d commits and %d failures reported", l.offered, l.committed, l.failed)
	case offered != uint64(l.offered) || committed != uint64(l.committed):
		return fmt.Errorf("engine counted %d offered / %d committed, callbacks %d / %d",
			offered, committed, l.offered, l.committed)
	}
	return nil
}

// simDriver submits generated transactions to a simulated cluster.
type simDriver struct {
	sc *simCluster
	s  *schema
	g  *gen
	l  *txnLog
	ws *wireStats

	// While a measured phase runs, every rateSlice commits are timed.
	timing   bool
	lastMark time.Time
	nextMark int64
	rates    []float64
}

// mark times the measured phase's commits in slices of rateSlice.
func (d *simDriver) mark() {
	if !d.timing || d.l.committed < d.nextMark {
		return
	}
	now := time.Now()
	d.rates = append(d.rates, rateSlice/now.Sub(d.lastMark).Seconds())
	d.lastMark, d.nextMark = now, d.nextMark+rateSlice
}

func (d *simDriver) submit(home int, ph phase, then func()) {
	in := d.g.next(home)
	d.l.submitted(ph)
	tr := d.sc.tr
	tok := tr.begin(0, spSubmit, 0)
	d.sc.cl.Node(netNode(home)).Submit(d.s.spec(in, tr, 0), func(r core.TxnResult) {
		d.l.done(r, ph, int64(r.Start), int64(r.End))
		d.mark()
		if then != nil {
			then()
		}
	})
	tr.end(0, tok)
}

// phaseStart snapshots the counters a measured phase is charged with.
type phaseStart struct {
	m      meter
	events uint64
	wire   counts
	engine engineCounts
}

func (d *simDriver) beginPhase() phaseStart {
	var e engineCounts
	readEngine(&e, d.sc.cl)
	p := phaseStart{events: d.sc.cl.Sched().Processed(), wire: d.ws.snapshot(), engine: e}
	d.sc.tr.setActive(true)
	p.m = startMeter()
	d.timing, d.lastMark, d.nextMark = true, time.Now(), d.l.committed+rateSlice
	return p
}

func (d *simDriver) endPhase(rs *runStats, p phaseStart) {
	rs.measured = p.m.stop()
	d.sc.tr.setActive(false)
	d.timing = false
	rs.rates = d.rates
	rs.mOffered, rs.mCommitted = d.l.offered, d.l.committed
	rs.events = d.sc.cl.Sched().Processed() - p.events
	rs.wire = d.ws.snapshot().minus(p.wire)
	var e engineCounts
	readEngine(&e, d.sc.cl)
	rs.engine = e.minus(p.engine)
	rs.heapBytes = liveHeap()
}

// finish audits the run and, when traced, replays the captured payloads
// through the codec.
func (d *simDriver) finish(rs *runStats) error {
	return finishRun(rs, d.l, d.ws, d.sc.tr, func() error { return d.sc.audit(d.s, d.l) })
}

func newSimDriver(seed int64, traced bool, cfg core.Config, prepare func(*core.Cluster), rs *runStats) (*simDriver, error) {
	s := newSchema(simNodes)
	d := &simDriver{s: s, g: newGen(seed, s), l: newTxnLog(s.n)}
	var tr *tracer
	if traced {
		d.ws = &wireStats{}
		tr = newTracer(1)
	}
	sc, err := setupSim(rs, func() (*simCluster, error) { return buildSim(seed, s, cfg, d.ws, tr, prepare) })
	if err != nil {
		return nil, err
	}
	d.sc = sc
	rs.n = s.n
	rs.log = d.l
	sc.cl.OnQuasiApplied(func(_ netsim.NodeID, q txn.Quasi) { d.l.installed(q.Txn, int64(sc.cl.Now())) })
	return d, nil
}

// simCommitParams size one sim-commit pass.
type simCommitParams struct {
	seed   int64
	target int64         // commits in the measured phase
	probe  time.Duration // virtual length of the partition probe
	traced bool
}

func runSimCommit(o options, traced bool, share float64) (*runStats, error) {
	return simCommit(simCommitParams{
		seed:   o.seed,
		target: int64(float64(o.seconds) * simCommitRate * share),
		probe:  time.Second,
		traced: traced,
	})
}

// simCommit is the commit-path workload: a closed loop of
// inFlightPerNode transactions per node under UnrestrictedReads, run
// until target commits are in and the cluster has converged. A short
// partition probe follows for avail_partition and converge_ms, then an
// idle phase.
func simCommit(p simCommitParams) (*runStats, error) {
	rs := &runStats{}
	d, err := newSimDriver(p.seed, p.traced, core.Config{Option: core.UnrestrictedReads}, nil, rs)
	if err != nil {
		return nil, err
	}
	defer d.sc.cl.Shutdown()
	l := d.l
	ph := phaseMeasured
	more := func() bool { return l.committedIn(phaseMeasured) < p.target }
	var loop func(home int)
	loop = func(home int) {
		if more() {
			d.submit(home, ph, func() { loop(home) })
		}
	}
	start := func() {
		for home := 0; home < d.s.n; home++ {
			for k := 0; k < inFlightPerNode; k++ {
				loop(home)
			}
		}
	}
	quiet := func() bool { return l.inFlight() == 0 }

	ps := d.beginPhase()
	start()
	if err := d.sc.stepUntil("measured phase", func() bool { return quiet() && d.sc.cl.Converged() }); err != nil {
		return nil, err
	}
	d.endPhase(rs, ps)

	ph = phasePartition
	probeEnd := d.sc.cl.Now().Add(p.probe)
	more = func() bool { return d.sc.cl.Now() < probeEnd }
	d.sc.nw.Partition(sideA, sideB)
	start()
	if err := d.sc.stepUntil("partition probe", quiet); err != nil {
		return nil, err
	}
	conv, err := d.sc.healAndConverge()
	if err != nil {
		return nil, err
	}
	rs.converge = append(rs.converge, conv)
	d.sc.measureIdle(rs)
	return rs, d.finish(rs)
}

// simPartitionParams size one sim-partition pass.
type simPartitionParams struct {
	seed           int64
	episodes       int
	healthy, split time.Duration // virtual phase lengths of an episode
	rate           float64       // arrivals per virtual second per node
	traced         bool
}

// simPartitionEpisodeSeconds is about the wall time one sim-partition
// episode takes on a 2-core machine; --seconds is spent in episodes of
// that size.
const simPartitionEpisodeSeconds = 2

func runSimPartition(o options, traced bool, share float64) (*runStats, error) {
	return simPartition(simPartitionParams{
		seed:     o.seed,
		episodes: max(1, int(float64(o.seconds)*share/simPartitionEpisodeSeconds+0.5)),
		healthy:  10 * time.Second,
		split:    30 * time.Second,
		rate:     100,
		traced:   traced,
	})
}

// partitionTimeout is sim-partition's TxnTimeout. Under ReadLocks a
// distributed deadlock (two §4.1 transactions each holding a remote read
// lock the other's write needs) is resolved only by a timeout, as is a
// lock request into the far side of the split; with the 5 s default the
// stuck locks snowball under the open loop until almost nothing
// commits, so the workload fails such transactions fast.
const partitionTimeout = 200 * time.Millisecond

// simPartition is the availability workload: an open loop of Poisson
// arrivals at every node; F0 and F3 run ReadLocks (§4.1), the rest
// UnrestrictedReads (§4.3); compaction is on with a small retain, so
// catch-up after the split goes through snapshots. Each episode is
// healthy, then split {0,1,2}|{3,4}, then heal and convergence; an idle
// tail follows the last episode.
func simPartition(p simPartitionParams) (*runStats, error) {
	rs := &runStats{}
	cfg := core.Config{
		Option:        core.UnrestrictedReads,
		Compaction:    true,
		CompactRetain: 64,
		TxnTimeout:    partitionTimeout,
	}
	d, err := newSimDriver(p.seed, p.traced, cfg, func(cl *core.Cluster) {
		cl.SetFragmentOption("F0", core.ReadLocks)
		cl.SetFragmentOption("F3", core.ReadLocks)
	}, rs)
	if err != nil {
		return nil, err
	}
	defer d.sc.cl.Shutdown()
	ps := d.beginPhase()
	for e := 0; e < p.episodes; e++ {
		conv, err := d.partitionEpisode(p)
		if err != nil {
			return nil, err
		}
		rs.converge = append(rs.converge, conv)
	}
	d.endPhase(rs, ps)
	d.sc.measureIdle(rs)
	return rs, d.finish(rs)
}

// partitionEpisode runs one healthy-split-heal episode from the current
// virtual time and returns its convergence time in ms.
func (d *simDriver) partitionEpisode(p simPartitionParams) (float64, error) {
	sched := d.sc.cl.Sched()
	splitAt := sched.Now().Add(p.healthy)
	loadEnd := splitAt.Add(p.split)
	gap := func() time.Duration { return time.Duration(d.g.rng.ExpFloat64() / p.rate * float64(time.Second)) }
	var arrive func(home int)
	arrive = func(home int) {
		now := sched.Now()
		if now >= loadEnd {
			return
		}
		ph := phaseMeasured
		if now >= splitAt {
			ph = phasePartition
		}
		d.submit(home, ph, nil)
		sched.After(gap(), func() { arrive(home) })
	}
	for home := 0; home < d.s.n; home++ {
		home := home
		sched.After(gap(), func() { arrive(home) })
	}
	sched.At(splitAt, func() { d.sc.nw.Partition(sideA, sideB) })
	d.sc.runTo(loadEnd)
	if err := d.sc.stepUntil("end of load", func() bool { return d.l.inFlight() == 0 }); err != nil {
		return 0, err
	}
	if d.l.byPhase[phasePartition].offered == 0 {
		return 0, errors.New("no transaction was offered during the partition")
	}
	return d.sc.healAndConverge()
}
