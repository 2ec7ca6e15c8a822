package main

import (
	"fmt"
	"math/rand"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/netsim"
	"fragdb/internal/storage"
	"fragdb/internal/txn"
)

// objsPerFrag is the number of int objects in each fragment.
const objsPerFrag = 64

// maxThink bounds the virtual time a transaction program computes
// between its reads and its writes. The think time is drawn from the
// seed, so latencies vary continuously from seed to seed instead of
// sitting on multiples of the engine's fixed per-operation latency.
const maxThink = 200 * time.Microsecond

// schema is the benchmark's database: fragment Fi is homed at node i
// and holds objsPerFrag int objects, all loaded as 0.
type schema struct {
	n     int
	frags []fragments.FragmentID
	objs  [][]fragments.ObjectID
}

func newSchema(n int) *schema {
	s := &schema{n: n}
	for i := 0; i < n; i++ {
		s.frags = append(s.frags, fragments.FragmentID(fmt.Sprintf("F%d", i)))
		objs := make([]fragments.ObjectID, objsPerFrag)
		for j := range objs {
			objs[j] = fragments.ObjectID(fmt.Sprintf("f%d.%d", i, j))
		}
		s.objs = append(s.objs, objs)
	}
	return s
}

// declare catalogs the fragments and assigns each token to its home
// node. Call before Start.
func (s *schema) declare(cl *core.Cluster) error {
	for i, f := range s.frags {
		if err := cl.Catalog().AddFragment(f, s.objs[i]...); err != nil {
			return err
		}
		cl.Tokens().Assign(f, fragments.NodeAgent(netsim.NodeID(i)), netsim.NodeID(i))
	}
	return nil
}

// load installs every object's initial value. Call after Start.
func (s *schema) load(cl *core.Cluster) error {
	for _, objs := range s.objs {
		for _, o := range objs {
			if err := cl.Load(o, int64(0)); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSums verifies the workload's invariant on one replica: every
// transaction adds 1 to one object of its fragment and subtracts 1 from
// another, so each fragment's sum stays 0.
func (s *schema) checkSums(node int, st *storage.Store) error {
	for i, objs := range s.objs {
		var sum int64
		for _, o := range objs {
			v, ok := st.Get(o)
			if !ok {
				return fmt.Errorf("node %d: object %s missing", node, o)
			}
			x, ok := v.(int64)
			if !ok {
				return fmt.Errorf("node %d: object %s holds %T", node, o, v)
			}
			sum += x
		}
		if sum != 0 {
			return fmt.Errorf("node %d: fragment %s sums to %d, want 0", node, s.frags[i], sum)
		}
	}
	return nil
}

// txnInput is one generated transaction: it reads foreign (an object
// of another node's fragment), then reads inc and dec (distinct objects
// of its own fragment), thinks, and writes inc+1 and dec-1.
type txnInput struct {
	home              int
	foreign, inc, dec fragments.ObjectID
	think             time.Duration
}

// gen draws transaction inputs from the workload seed.
type gen struct {
	rng *rand.Rand
	s   *schema
}

func newGen(seed int64, s *schema) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed*1_000_003 + 11)), s: s}
}

func (g *gen) next(home int) txnInput {
	other := g.rng.Intn(g.s.n - 1)
	if other >= home {
		other++
	}
	a := g.rng.Intn(objsPerFrag)
	b := g.rng.Intn(objsPerFrag - 1)
	if b >= a {
		b++
	}
	return txnInput{
		home:    home,
		foreign: g.s.objs[other][g.rng.Intn(objsPerFrag)],
		inc:     g.s.objs[home][a],
		dec:     g.s.objs[home][b],
		think:   time.Duration(g.rng.Int63n(int64(maxThink) + 1)),
	}
}

// spec builds the transaction for one input. With a tracer, the
// program records its own code between Tx calls as program spans on
// the home node's track, and each Tx call as an asynchronous span.
func (s *schema) spec(in txnInput, tr *tracer, track int) core.TxnSpec {
	return core.TxnSpec{
		Agent:    fragments.NodeAgent(netsim.NodeID(in.home)),
		Fragment: s.frags[in.home],
		Program: func(tx *core.Tx) error {
			p := txProgram{tx: tx, tr: tr, track: track}
			return p.run(in)
		},
	}
}

// txProgram runs one transaction body, optionally traced.
type txProgram struct {
	tx    *core.Tx
	tr    *tracer
	track int
	id    uint64
	seg   spanToken
}

func (p *txProgram) run(in txnInput) error {
	if p.tr != nil {
		p.id = txnKey(p.tx.ID())
		p.tr.countRun()
		p.seg = p.tr.begin(p.track, spProgram, p.id)
		defer func() { p.tr.end(p.track, p.seg) }()
	}
	if _, err := p.read(in.foreign); err != nil {
		return err
	}
	a, err := p.read(in.inc)
	if err != nil {
		return err
	}
	b, err := p.read(in.dec)
	if err != nil {
		return err
	}
	p.call(spTxThink, func() error { p.tx.Think(in.think); return nil })
	if err := p.call(spTxWrite, func() error { return p.tx.Write(in.inc, a+1) }); err != nil {
		return err
	}
	return p.call(spTxWrite, func() error { return p.tx.Write(in.dec, b-1) })
}

func (p *txProgram) read(o fragments.ObjectID) (int64, error) {
	var v int64
	err := p.call(spTxRead, func() error {
		var err error
		v, err = p.tx.ReadInt(o)
		return err
	})
	return v, err
}

// call makes one Tx call. The program span pauses for its duration:
// the engine, not the program, runs while the call is outstanding.
func (p *txProgram) call(name spanName, fn func() error) error {
	if p.tr == nil {
		return fn()
	}
	p.tr.end(p.track, p.seg)
	start := p.tr.now()
	err := fn()
	p.tr.async(name, start, p.tr.now(), p.id)
	p.seg = p.tr.begin(p.track, spProgram, p.id)
	return err
}

// txnKey packs a transaction id into one span field.
func txnKey(id txn.ID) uint64 { return uint64(id.Origin)<<48 | id.Seq }
