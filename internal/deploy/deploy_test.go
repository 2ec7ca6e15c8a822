package deploy

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fragdb/internal/core"
	"fragdb/internal/netsim"
	"fragdb/internal/workload"
)

// clusterOutcome is what a 3-node deployment run produces: committed
// operation counts and the converged state every replica agreed on.
type clusterOutcome struct {
	commits     int64
	deposits    int64
	withdrawals int64
	counter     int64
	queue       int
	balances    int64
}

// buildCluster assembles n deployment nodes over real TCP sockets on
// ephemeral loopback ports and registers cleanup.
func buildCluster(t *testing.T, n int) []*Node {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nd, err := NewTCP(Config{ID: i, Addrs: addrs, Accounts: n, Seed: int64(i + 1), Listener: lns[i]})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
		t.Cleanup(nd.Close)
	}
	return nodes
}

// Scenario shape: scenarioRounds rounds, each submitting one deposit,
// one withdrawal, one counter bump and one enqueue at every one of
// scenarioNodes nodes.
const (
	scenarioNodes    = 3
	scenarioRounds   = 8
	scenarioDeposit  = 50
	scenarioWithdraw = 30
)

// runScenario drives the workload against a fresh TCP cluster and
// returns the converged outcome.
func runScenario(t *testing.T) clusterOutcome {
	t.Helper()
	const n = scenarioNodes
	const rounds = scenarioRounds
	nodes := buildCluster(t, n)

	var wg sync.WaitGroup
	var commits, deposits, withdrawals, bumps, enqueues atomic.Int64
	track := func(kindCommits *atomic.Int64, amt int64) func(core.TxnResult) {
		wg.Add(1)
		return func(r core.TxnResult) {
			defer wg.Done()
			if r.Committed {
				commits.Add(1)
				kindCommits.Add(amt)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			nd := nodes[i]
			acct := workload.LiveAccount(i)
			ops := []struct {
				op   Op
				done func(core.TxnResult)
			}{
				{Op{Kind: "deposit", Account: acct, Amount: scenarioDeposit}, track(&deposits, scenarioDeposit)},
				{Op{Kind: "withdraw", Account: acct, Amount: scenarioWithdraw}, track(&withdrawals, scenarioWithdraw)},
				{Op{Kind: "bump", Amount: 1}, track(&bumps, 1)},
				{Op{Kind: "enqueue", Item: fmt.Sprintf("it-%d-%d", round, i)}, track(&enqueues, 1)},
			}
			for _, o := range ops {
				if err := nd.Do(o.op, o.done); err != nil {
					t.Fatalf("node %d %s: %v", i, o.op.Kind, err)
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(30 * time.Second):
		t.Fatal("operations did not finish in 30s")
	}

	// Poll until every replica has converged: the commutative totals
	// match the committed operation counts and the money adds up at
	// every node.
	wantBalances := int64(n)*1000 + deposits.Load() - withdrawals.Load()
	deadline := time.Now().Add(30 * time.Second)
	var lastErr string
	for {
		converged := true
		lastErr = ""
		for i := 0; i < n; i++ {
			nd := nodes[i]
			local := netsim.NodeID(nd.Cfg.ID)
			var ctr, total int64
			var q int
			if err := nd.Inspect(func() {
				ctr = nd.Live.CounterTotal(local)
				q = nd.Live.QueueLen(local)
				for a := 0; a < n; a++ {
					total += nd.Live.Balance(local, workload.LiveAccount(a))
				}
			}); err != nil {
				t.Fatal(err)
			}
			if ctr != bumps.Load() || q != int(enqueues.Load()) || total != wantBalances {
				converged = false
				lastErr = fmt.Sprintf("node %d: counter %d/%d queue %d/%d balances %d/%d",
					i, ctr, bumps.Load(), q, enqueues.Load(), total, wantBalances)
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: %s", lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}

	return clusterOutcome{
		commits:     commits.Load(),
		deposits:    deposits.Load(),
		withdrawals: withdrawals.Load(),
		counter:     bumps.Load(),
		queue:       int(enqueues.Load()),
		balances:    wantBalances,
	}
}

// TestLoopbackTCPEquivalence runs the 3-node bank/counter/queue
// workload over real TCP sockets on the loopback interface (wire
// codec, framing, reconnecting peers, loop-threaded delivery) and
// demands the outcome the workload fixes in advance, the one the
// engine's semantics imply: with no faults and no overdrafts every
// operation commits, and every replica converges to the totals.
func TestLoopbackTCPEquivalence(t *testing.T) {
	const ops = scenarioRounds * scenarioNodes
	deposits, withdrawals := int64(ops*scenarioDeposit), int64(ops*scenarioWithdraw)
	want := clusterOutcome{
		commits:     4 * ops,
		deposits:    deposits,
		withdrawals: withdrawals,
		counter:     ops,
		queue:       ops,
		balances:    scenarioNodes*1000 + deposits - withdrawals,
	}
	if got := runScenario(t); got != want {
		t.Fatalf("TCP outcome diverged:\n got:  %+v\n want: %+v", got, want)
	}
}
