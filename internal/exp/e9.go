package exp

import (
	"fmt"
	"math/rand"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/fragments"
	"fragdb/internal/history"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/simtime"
)

// RunE9 validates the Section 4.2 theorem and the Section 4.3
// properties by randomized search rather than by a single example:
//
//   - Theorem: for random workloads whose declared read-access graph is
//     a random forest (elementarily acyclic), every execution — across
//     random partition schedules — is globally serializable.
//   - Properties 1-2: for random workloads with UNRESTRICTED reads
//     (arbitrary cross-fragment reading), every execution is
//     fragmentwise serializable and mutually consistent after repair.
//
// A counterexample in either campaign would falsify the implementation
// or the theorem; zero violations across all trials is the expected
// result.
func RunE9(seed int64) *Result {
	r := &Result{
		ID:     "E9",
		Title:  "Section 4.2 theorem + Section 4.3 Properties 1-2 — randomized validation",
		Claim:  "acyclic read-access graphs always yield globally serializable executions; unrestricted reads always yield fragmentwise-serializable, convergent executions",
		Header: []string{"campaign", "trials", "txns run", "violations", "commit p50/p95/p99"},
	}
	const trials = 12

	gsgViolations, fwViolations, mcViolations := 0, 0, 0
	var txnsAcyclic, txnsFree uint64
	var latAcyclic, latFree metrics.Histogram

	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(seed + int64(trial)*7919))
		txnsAcyclic += randomTrial(rng, true, &gsgViolations, &fwViolations, &mcViolations, &latAcyclic)
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(seed + 1000 + int64(trial)*104729))
		txnsFree += randomTrial(rng, false, &gsgViolations, &fwViolations, &mcViolations, &latFree)
	}

	r.AddRow("acyclic RAG -> global serializability", fmt.Sprint(trials),
		fmt.Sprint(txnsAcyclic), fmt.Sprint(gsgViolations), quantiles(&latAcyclic))
	r.AddRow("unrestricted -> fragmentwise serializability", fmt.Sprint(trials),
		fmt.Sprint(txnsFree), fmt.Sprint(fwViolations), quantiles(&latFree))
	r.AddRow("unrestricted -> mutual consistency", fmt.Sprint(trials),
		fmt.Sprint(txnsFree), fmt.Sprint(mcViolations), quantiles(&latFree))
	r.Pass = gsgViolations == 0 && fwViolations == 0 && mcViolations == 0
	r.AddNote("each trial: random forest/complete read pattern over 4-6 fragments, random update stream, random partition+heal, random message loss on half the trials")
	return r
}

// randomTrial builds one random cluster and workload. With acyclic set,
// the declared read pattern is a random forest and reads stay within
// it; otherwise reads are arbitrary. It returns the number of committed
// transactions and bumps the violation counters; lat, when non-nil,
// accumulates the trial's commit-latency histogram.
func randomTrial(rng *rand.Rand, acyclic bool, gsgV, fwV, mcV *int, lat *metrics.Histogram) uint64 {
	k := 4 + rng.Intn(3) // fragments
	n := k               // one agent per node
	opt := core.UnrestrictedReads
	if acyclic {
		opt = core.AcyclicReads
	}
	cfg := core.Config{N: n, Option: opt, Seed: rng.Int63()}
	if rng.Intn(2) == 0 {
		// Half the trials also suffer random message loss; the
		// anti-entropy layer must absorb it.
		cfg.LossProb = 0.05 + 0.15*rng.Float64()
	}
	cl := core.NewCluster(cfg)
	frags := make([]fragments.FragmentID, k)
	objs := make([][]fragments.ObjectID, k)
	for i := 0; i < k; i++ {
		frags[i] = fragments.FragmentID(fmt.Sprintf("F%d", i))
		objs[i] = []fragments.ObjectID{
			fragments.ObjectID(fmt.Sprintf("f%d/a", i)),
			fragments.ObjectID(fmt.Sprintf("f%d/b", i)),
		}
		if err := cl.Catalog().AddFragment(frags[i], objs[i]...); err != nil {
			panic(err)
		}
		cl.Tokens().Assign(frags[i], fragments.NodeAgent(netsim.NodeID(i)), netsim.NodeID(i))
	}
	// Declared read pattern.
	reads := make([][]int, k) // reads[i] = fragment indices A(Fi) may read
	if acyclic {
		// Random forest: fragment i>0 reads its random parent < i (or
		// none); orientation random but the undirected shape is a forest.
		for i := 1; i < k; i++ {
			if rng.Intn(4) == 0 {
				continue
			}
			p := rng.Intn(i)
			if rng.Intn(2) == 0 {
				reads[i] = append(reads[i], p)
				cl.DeclareRead(frags[i], frags[p])
			} else {
				reads[p] = append(reads[p], i)
				cl.DeclareRead(frags[p], frags[i])
			}
		}
	} else {
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && rng.Intn(2) == 0 {
					reads[i] = append(reads[i], j)
				}
			}
		}
	}
	if err := cl.Start(); err != nil {
		panic(err)
	}
	for i := 0; i < k; i++ {
		for _, o := range objs[i] {
			cl.Load(o, int64(0))
		}
	}
	defer cl.Shutdown()

	// Random workload: each agent runs several read-modify-write
	// transactions on its own fragment, reading its declared foreign
	// fragments first.
	total := 20 + rng.Intn(20)
	for t := 0; t < total; t++ {
		i := rng.Intn(k)
		at := simtime.Time(time.Duration(rng.Intn(1500)) * time.Millisecond)
		myObj := objs[i][rng.Intn(2)]
		var foreign []fragments.ObjectID
		for _, j := range reads[i] {
			if rng.Intn(2) == 0 {
				foreign = append(foreign, objs[j][rng.Intn(2)])
			}
		}
		node := netsim.NodeID(i)
		frag := frags[i]
		cl.Sched().At(at, func() {
			cl.Node(node).Submit(core.TxnSpec{
				Agent: fragments.NodeAgent(node), Fragment: frag,
				Timeout: 2 * time.Second,
				Program: func(tx *core.Tx) error {
					sum := int64(0)
					for _, o := range foreign {
						v, err := tx.ReadInt(o)
						if err != nil {
							return err
						}
						sum += v
					}
					v, err := tx.ReadInt(myObj)
					if err != nil {
						return err
					}
					return tx.Write(myObj, v+sum+1)
				},
			}, nil)
		})
	}
	// Random partition in the middle.
	if n >= 2 {
		cut := rng.Intn(n-1) + 1
		var ga, gb []netsim.NodeID
		for i := 0; i < n; i++ {
			if i < cut {
				ga = append(ga, netsim.NodeID(i))
			} else {
				gb = append(gb, netsim.NodeID(i))
			}
		}
		splitAt := simtime.Time(time.Duration(200+rng.Intn(400)) * time.Millisecond)
		healAt := splitAt + simtime.Time(time.Duration(300+rng.Intn(700))*time.Millisecond)
		cl.Net().ScheduleSplit(splitAt, ga, gb)
		cl.Net().ScheduleHeal(healAt)
	}
	cl.RunFor(2 * time.Second)
	cl.Settle(120 * time.Second)

	if acyclic {
		if cl.Recorder().CheckGlobal(history.Options{}) != nil {
			*gsgV++
		}
	}
	if cl.Recorder().CheckFragmentwise() != nil {
		*fwV++
	}
	// The theorem's premise must hold in every run, acyclic or not:
	// local concurrency control keeps all local serialization graphs
	// (Definition 8.3) acyclic.
	if cl.Recorder().CheckLocalGraphs() != nil {
		*fwV++
	}
	if cl.CheckMutualConsistency() != nil {
		*mcV++
	}
	if lat != nil {
		lat.Merge(&cl.Stats().CommitLatency)
	}
	return cl.Stats().Committed.Load()
}
