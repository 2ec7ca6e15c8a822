package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fragdb/internal/simtime"
)

func collector(nw *Network, node NodeID) *[]any {
	var got []any
	nw.SetHandler(node, func(from NodeID, payload any) { got = append(got, payload) })
	return &got
}

func TestSendDeliversAfterLatency(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 2, WithLatency(FixedLatency(25*time.Millisecond)))
	var at simtime.Time
	nw.SetHandler(1, func(from NodeID, payload any) {
		at = s.Now()
		if from != 0 || payload != "hello" {
			t.Errorf("got from=%v payload=%v", from, payload)
		}
	})
	nw.Send(0, 1, "hello")
	s.Run()
	if at != simtime.Time(25*time.Millisecond) {
		t.Errorf("delivered at %v, want 25ms", at)
	}
}

func TestSelfSendZeroLatency(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 1)
	got := collector(nw, 0)
	nw.Send(0, 0, 42)
	s.Run()
	if len(*got) != 1 || s.Now() != 0 {
		t.Errorf("self-send: got=%v now=%v", *got, s.Now())
	}
}

func TestSeveredLinkDrops(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 2)
	got := collector(nw, 1)
	nw.SetLink(0, 1, false)
	nw.Send(0, 1, "lost")
	s.Run()
	if len(*got) != 0 {
		t.Error("message crossed a severed link")
	}
	if nw.Stats().DroppedLink != 1 {
		t.Errorf("DroppedLink = %d, want 1", nw.Stats().DroppedLink)
	}
	nw.SetLink(0, 1, true)
	nw.Send(0, 1, "ok")
	s.Run()
	if len(*got) != 1 {
		t.Error("message lost after link restore")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 4)
	got3 := collector(nw, 3)
	got1 := collector(nw, 1)
	nw.Partition([]NodeID{0, 1}, []NodeID{2, 3})
	nw.Send(0, 3, "cross") // dropped
	nw.Send(0, 1, "within")
	s.Run()
	if len(*got3) != 0 {
		t.Error("cross-partition message delivered")
	}
	if len(*got1) != 1 {
		t.Error("within-partition message lost")
	}
	nw.Heal()
	nw.Send(0, 3, "healed")
	s.Run()
	if len(*got3) != 1 {
		t.Error("message lost after heal")
	}
}

func TestPartitionIsolatesUnmentionedNodes(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 3)
	got2 := collector(nw, 2)
	nw.Partition([]NodeID{0, 1}) // node 2 unmentioned -> isolated
	nw.Send(0, 2, "x")
	nw.Send(1, 2, "y")
	s.Run()
	if len(*got2) != 0 {
		t.Error("unmentioned node was not isolated")
	}
	if !nw.Reachable(0, 1) || nw.Reachable(0, 2) {
		t.Error("Reachable disagrees with partition")
	}
}

func TestNodeCrash(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 2, WithLatency(FixedLatency(10*time.Millisecond)))
	got := collector(nw, 1)
	nw.Send(0, 1, "a")
	// Crash destination before delivery: in-flight message lost.
	s.RunFor(5 * time.Millisecond)
	nw.SetNodeDown(1, true)
	s.Run()
	if len(*got) != 0 {
		t.Error("message delivered to crashed node")
	}
	nw.SetNodeDown(1, false)
	nw.Send(0, 1, "b")
	s.Run()
	if len(*got) != 1 {
		t.Error("message lost after restart")
	}
	if nw.Stats().DroppedNode == 0 {
		t.Error("DroppedNode not counted")
	}
}

func TestCrashedSenderDrops(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 2)
	got := collector(nw, 1)
	nw.SetNodeDown(0, true)
	nw.Send(0, 1, "x")
	s.Run()
	if len(*got) != 0 {
		t.Error("crashed node sent a message")
	}
}

func TestTopologyRestrictsDirectLinks(t *testing.T) {
	s := simtime.NewScheduler(1)
	// Line topology: 0-1-2. No direct 0-2 link.
	nw := New(s, 3, WithTopology([][2]NodeID{{0, 1}, {1, 2}}))
	got2 := collector(nw, 2)
	nw.Send(0, 2, "direct")
	s.Run()
	if len(*got2) != 0 {
		t.Error("message crossed a non-existent link")
	}
	// But 2 is reachable from 0 via 1 (multi-hop routing is the
	// responsibility of upper layers; Reachable reports connectivity).
	if !nw.Reachable(0, 2) {
		t.Error("Reachable(0,2) = false on a line topology")
	}
	nw.SetLink(1, 2, false)
	if nw.Reachable(0, 2) {
		t.Error("Reachable(0,2) = true after cutting 1-2")
	}
}

func TestComponent(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 5)
	nw.Partition([]NodeID{0, 2, 4}, []NodeID{1, 3})
	comp := nw.Component(2)
	want := []NodeID{0, 2, 4}
	if len(comp) != len(want) {
		t.Fatalf("Component = %v, want %v", comp, want)
	}
	for i := range want {
		if comp[i] != want[i] {
			t.Fatalf("Component = %v, want %v", comp, want)
		}
	}
}

func TestScheduledSplitAndHeal(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 2, WithLatency(FixedLatency(time.Millisecond)))
	got := collector(nw, 1)
	nw.ScheduleSplit(simtime.Time(10*time.Millisecond), []NodeID{0}, []NodeID{1})
	nw.ScheduleHeal(simtime.Time(20 * time.Millisecond))
	s.At(simtime.Time(5*time.Millisecond), func() { nw.Send(0, 1, "before") })
	s.At(simtime.Time(15*time.Millisecond), func() { nw.Send(0, 1, "during") })
	s.At(simtime.Time(25*time.Millisecond), func() { nw.Send(0, 1, "after") })
	s.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d messages, want 2 (before+after)", len(*got))
	}
	if (*got)[0] != "before" || (*got)[1] != "after" {
		t.Errorf("got %v", *got)
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	s := simtime.NewScheduler(99)
	f := UniformLatency(5*time.Millisecond, 15*time.Millisecond)
	for i := 0; i < 1000; i++ {
		d := f(0, 1, s.Rand())
		if d < 5*time.Millisecond || d > 15*time.Millisecond {
			t.Fatalf("latency %v out of bounds", d)
		}
	}
	// Degenerate and swapped bounds.
	if d := UniformLatency(7, 7)(0, 1, s.Rand()); d != 7 {
		t.Errorf("degenerate uniform = %v", d)
	}
	if d := UniformLatency(10, 2)(0, 1, s.Rand()); d < 2 || d > 10 {
		t.Errorf("swapped-bounds uniform = %v", d)
	}
}

func TestStatsCounters(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 2, WithSizeFunc(func(any) int { return 100 }))
	collector(nw, 1)
	nw.Send(0, 1, "a")
	nw.Send(0, 1, "b")
	nw.SetLink(0, 1, false)
	nw.Send(0, 1, "c")
	s.Run()
	st := nw.Stats()
	if st.Sent != 3 || st.Delivered != 2 || st.DroppedLink != 1 || st.Bytes != 200 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []simtime.Time {
		s := simtime.NewScheduler(123)
		nw := New(s, 3, WithLatency(UniformLatency(time.Millisecond, 50*time.Millisecond)))
		var times []simtime.Time
		for i := 0; i < 3; i++ {
			nw.SetHandler(NodeID(i), func(NodeID, any) { times = append(times, s.Now()) })
		}
		for i := 0; i < 20; i++ {
			nw.Send(NodeID(i%3), NodeID((i+1)%3), i)
		}
		s.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different delivery counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("different delivery times across identical runs")
		}
	}
}

// Property: Reachable is symmetric and reflexive for up nodes under any
// random set of link cuts.
func TestPropertyReachableSymmetric(t *testing.T) {
	f := func(cuts []uint8) bool {
		s := simtime.NewScheduler(5)
		const n = 6
		nw := New(s, n)
		for _, c := range cuts {
			a := NodeID(c % n)
			b := NodeID((c / n) % n)
			if a != b {
				nw.SetLink(a, b, false)
			}
		}
		for a := NodeID(0); a < n; a++ {
			if !nw.Reachable(a, a) {
				return false
			}
			for b := NodeID(0); b < n; b++ {
				if nw.Reachable(a, b) != nw.Reachable(b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

// Property: partitioning into groups makes Reachable true exactly for
// same-group pairs (full-mesh network, all nodes up).
func TestPropertyPartitionReachability(t *testing.T) {
	f := func(assign []uint8) bool {
		n := len(assign)
		if n == 0 || n > 12 {
			return true
		}
		s := simtime.NewScheduler(6)
		nw := New(s, n)
		groups := map[uint8][]NodeID{}
		for i, g := range assign {
			g %= 4
			groups[g] = append(groups[g], NodeID(i))
		}
		var gs [][]NodeID
		for _, g := range groups {
			gs = append(gs, g)
		}
		nw.Partition(gs...)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := assign[a]%4 == assign[b]%4
				if nw.Reachable(NodeID(a), NodeID(b)) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(3).String() != "N3" {
		t.Errorf("String = %q", NodeID(3).String())
	}
}

func TestAllNodes(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 3)
	all := nw.AllNodes()
	if len(all) != 3 || all[0] != 0 || all[2] != 2 {
		t.Errorf("AllNodes = %v", all)
	}
}

func TestWithLossDropsApproximatelyP(t *testing.T) {
	s := simtime.NewScheduler(8)
	nw := New(s, 2, WithLoss(0.3), WithLatency(FixedLatency(time.Millisecond)))
	got := collector(nw, 1)
	const total = 2000
	for i := 0; i < total; i++ {
		nw.Send(0, 1, i)
	}
	s.Run()
	st := nw.Stats()
	if st.DroppedLoss == 0 {
		t.Fatal("no losses")
	}
	rate := float64(st.DroppedLoss) / float64(total)
	if rate < 0.25 || rate > 0.35 {
		t.Errorf("loss rate = %.3f, want ~0.30", rate)
	}
	if len(*got)+int(st.DroppedLoss) != total {
		t.Errorf("delivered %d + lost %d != %d", len(*got), st.DroppedLoss, total)
	}
	// Self-sends are never lost.
	got0 := collector(nw, 0)
	for i := 0; i < 100; i++ {
		nw.Send(0, 0, i)
	}
	s.Run()
	if len(*got0) != 100 {
		t.Errorf("self-sends lost: %d/100", len(*got0))
	}
}

// TestDroppedAtDeliveryRecyclesRecord: a message whose destination
// crashes while it is in flight is dropped at delivery, and its
// in-flight record still goes back to the pool for the next Send.
func TestDroppedAtDeliveryRecyclesRecord(t *testing.T) {
	s := simtime.NewScheduler(1)
	nw := New(s, 2, WithLatency(FixedLatency(10*time.Millisecond)))
	got := collector(nw, 1)
	nw.Send(0, 1, "lost")
	if len(nw.free) != 0 {
		t.Fatalf("free list holds %d records while the message is in flight", len(nw.free))
	}
	nw.SetNodeDown(1, true)
	s.Run()
	if len(*got) != 0 || nw.Stats().DroppedNode != 1 {
		t.Fatalf("got %v, DroppedNode %d; want nothing delivered, 1 drop", *got, nw.Stats().DroppedNode)
	}
	if len(nw.free) != 1 {
		t.Fatalf("free list holds %d records after the drop, want 1", len(nw.free))
	}
	rec := nw.free[0]
	if rec.payload != nil {
		t.Fatal("recycled record still references its payload")
	}
	nw.SetNodeDown(1, false)
	nw.Send(0, 1, "found")
	if len(nw.free) != 0 {
		t.Fatal("Send did not reuse the recycled record")
	}
	s.Run()
	if len(*got) != 1 || (*got)[0] != "found" {
		t.Fatalf("got %v, want [found]", *got)
	}
	if len(nw.free) != 1 || nw.free[0] != rec {
		t.Fatal("the reused record did not return to the pool")
	}
}
