package rtnet

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/wire"
)

// collector gathers deliveries thread-safely.
type collector struct {
	mu  sync.Mutex
	got []any
}

func (c *collector) handler(from netsim.NodeID, payload any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, payload)
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func waitFor(t *testing.T, cond func() bool, within time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// newTCPCluster builds an n-node TCP transport cluster on ephemeral
// loopback ports, returning the transports and their addresses.
func newTCPCluster(t *testing.T, n int) ([]*TCP, []string) {
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
	ts := make([]*TCP, n)
	for i := range ts {
		tp, err := NewTCP(TCPConfig{
			Local:          netsim.NodeID(i),
			Addrs:          addrs,
			Listener:       lns[i],
			DialBackoffMin: 5 * time.Millisecond,
			DialBackoffMax: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = tp
		t.Cleanup(tp.Close)
	}
	return ts, addrs
}

func TestTCPDelivery(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)
	// Sends queue until the dial completes; none should be lost with an
	// empty queue.
	ts[0].Send(0, 1, "hello")
	ts[0].Send(0, 1, int64(42))
	ts[1].Send(1, 1, "self") // self-send, no codec
	if !waitFor(t, func() bool { return c.len() == 3 }, 5*time.Second) {
		t.Fatalf("got %d deliveries, want 3", c.len())
	}
}

func TestTCPPeerUnreachableAtDial(t *testing.T) {
	// Node 1's address is a dead port: grab and release an ephemeral
	// listener so nothing answers there.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTCP(TCPConfig{
		Local:          0,
		Addrs:          []string{ln.Addr().String(), deadAddr},
		Listener:       ln,
		DialBackoffMin: time.Millisecond,
		DialBackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	// Sends must not block or panic while the peer is unreachable.
	for i := 0; i < 10; i++ {
		tp.Send(0, 1, int64(i))
	}
	if !waitFor(t, func() bool { return tp.Stats().DialErrors.Load() >= 2 }, 5*time.Second) {
		t.Fatal("transport is not retrying the unreachable peer")
	}
	if tp.Reachable(0, 1) {
		t.Error("Reachable(0,1) = true with nothing listening")
	}
}

func TestTCPReconnectAfterRestart(t *testing.T) {
	ts, addrs := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)
	ts[0].Send(0, 1, "before")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("no delivery before restart")
	}

	// Kill node 1 and restart it on the same address, as a crashed
	// process would. Node 0 must redial and resume delivering.
	ts[1].Close()
	var ts1b *TCP
	ok := waitFor(t, func() bool {
		tp, err := NewTCP(TCPConfig{
			Local:          1,
			Addrs:          addrs,
			DialBackoffMin: 5 * time.Millisecond,
			DialBackoffMax: 50 * time.Millisecond,
		})
		if err != nil {
			return false // port may linger briefly after Close
		}
		ts1b = tp
		return true
	}, 5*time.Second)
	if !ok {
		t.Fatal("could not rebind the restarted node's address")
	}
	defer ts1b.Close()
	var c2 collector
	ts1b.SetHandler(1, c2.handler)

	// The old connection may take a failed write to be noticed; keep
	// sending until one lands.
	ok = waitFor(t, func() bool {
		ts[0].Send(0, 1, "after")
		return c2.len() > 0
	}, 10*time.Second)
	if !ok {
		t.Fatal("no delivery after restart")
	}
}

// dialHello opens a raw client connection with a valid handshake.
func dialHello(t *testing.T, addr string, id uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := append([]byte{}, tcpMagic[:]...)
	hello = append(hello, tcpVersion)
	hello = binary.AppendUvarint(hello, id)
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestTCPConnResetMidFrame(t *testing.T) {
	ts, addrs := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)

	// A hostile client handshakes as node 0, sends half a frame, then
	// resets the connection (SO_LINGER 0 turns Close into RST).
	conn := dialHello(t, addrs[1], 0)
	payload, err := wire.Encode("victim")
	if err != nil {
		t.Fatal(err)
	}
	frame := wire.AppendFrame(nil, payload)
	if _, err := conn.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()

	// Garbage magic on a second connection must be rejected too.
	conn2, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	conn2.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	conn2.Close()

	// The transport survives: the real node 0 still gets through.
	ts[0].Send(0, 1, "real")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("delivery broken after mid-frame reset")
	}
}

func TestTCPOversizedFrameKillsConnNotProcess(t *testing.T) {
	ts, addrs := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)

	// Declare a 2^40-byte frame: the reader must kill the connection
	// before allocating anything like that.
	conn := dialHello(t, addrs[1], 0)
	defer conn.Close()
	if _, err := conn.Write(binary.AppendUvarint(nil, 1<<40)); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, func() bool { return ts[1].Stats().ConnErrors.Load() >= 1 }, 5*time.Second) {
		t.Fatal("oversized frame not counted as a connection error")
	}
	ts[0].Send(0, 1, "still-works")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("delivery broken after oversized frame")
	}
}

func TestTCPDropRules(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)
	ts[0].Send(0, 1, "a")
	if !waitFor(t, func() bool { return c.len() == 1 }, 5*time.Second) {
		t.Fatal("baseline delivery failed")
	}

	// Outbound drop at the sender.
	ts[0].SetPeerDrop(1, true)
	ts[0].Send(0, 1, "dropped-out")
	// Inbound drop at the receiver.
	ts[0].SetPeerDrop(1, false)
	ts[1].SetPeerDrop(0, true)
	ts[0].Send(0, 1, "dropped-in")
	time.Sleep(100 * time.Millisecond)
	if c.len() != 1 {
		t.Fatalf("partitioned sends delivered: %d", c.len())
	}
	if ts[0].Reachable(0, 1) && ts[1].Reachable(0, 1) {
		t.Error("Reachable ignores drop rules")
	}

	ts[1].SetPeerDrop(0, false)
	ts[0].Send(0, 1, "healed")
	if !waitFor(t, func() bool { return c.len() == 2 }, 5*time.Second) {
		t.Fatal("delivery not restored after drop rules cleared")
	}
}

// TestTCPBroadcastConvergence runs the reliable broadcast over real TCP
// with a drop-rule partition mid-stream: after healing, anti-entropy
// must converge every node, exactly as over netsim. Run under -race.
func TestTCPBroadcastConvergence(t *testing.T) {
	const n = 3
	ts, _ := newTCPCluster(t, n)
	bs := make([]*broadcast.Broadcaster, n)
	var mu sync.Mutex
	got := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		bs[i] = broadcast.New(netsim.NodeID(i), ts[i], broadcast.WallTimer{},
			broadcast.Config{GossipInterval: int64(10 * time.Millisecond)},
			func(origin netsim.NodeID, seq uint64, payload any) {
				mu.Lock()
				got[i]++
				mu.Unlock()
			})
		ts[i].SetHandler(netsim.NodeID(i), func(from netsim.NodeID, payload any) {
			bs[i].HandleMessage(from, payload)
		})
	}
	defer func() {
		for _, b := range bs {
			b.Stop()
		}
	}()

	// Partition node 2 away via drop rules on both sides of each link.
	for _, a := range []int{0, 1} {
		ts[a].SetPeerDrop(2, true)
		ts[2].SetPeerDrop(netsim.NodeID(a), true)
	}
	const msgs = 5
	for i := 0; i < msgs; i++ {
		bs[0].Send(int64(i))
	}
	time.Sleep(50 * time.Millisecond)
	if bs[2].Prefix(0) != 0 {
		t.Fatal("partitioned node received messages through drop rules")
	}
	for _, a := range []int{0, 1} {
		ts[a].SetPeerDrop(2, false)
		ts[2].SetPeerDrop(netsim.NodeID(a), false)
	}
	ok := waitFor(t, func() bool {
		for i := 0; i < n; i++ {
			if bs[i].Prefix(0) != msgs {
				return false
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		for i := 0; i < n; i++ {
			t.Logf("node %d prefix(0) = %d", i, bs[i].Prefix(0))
		}
		t.Fatal("broadcast did not converge over TCP after heal")
	}
}

// partition cuts (or, with cut false, restores) every link between the
// two groups with drop rules on both ends.
func partition(ts []*TCP, left, right []netsim.NodeID, cut bool) {
	for _, a := range left {
		for _, b := range right {
			ts[a].SetPeerDrop(b, cut)
			ts[b].SetPeerDrop(a, cut)
		}
	}
}

// TestRealTimeGossipConcurrency runs a live TCP cluster with the
// built-in wall-clock gossip timer and compaction while every node
// sends concurrently and the network partitions and heals mid-load —
// the timer goroutine, the transports' delivery goroutines, and the
// senders all touch broadcaster state concurrently. The regression: the
// broadcaster demanded "external synchronization" that no real-time
// caller provided. Run under -race.
func TestRealTimeGossipConcurrency(t *testing.T) {
	const n = 3
	ts, _ := newTCPCluster(t, n)
	bs := make([]*broadcast.Broadcaster, n)
	for i := 0; i < n; i++ {
		i := i
		bs[i] = broadcast.New(netsim.NodeID(i), ts[i], broadcast.WallTimer{},
			broadcast.Config{GossipInterval: int64(2 * time.Millisecond), Compaction: true, CompactRetain: 8},
			func(origin netsim.NodeID, seq uint64, payload any) {})
		ts[i].SetHandler(netsim.NodeID(i), func(from netsim.NodeID, payload any) {
			bs[i].HandleMessage(from, payload)
		})
	}
	defer func() {
		for _, b := range bs {
			b.Stop()
		}
	}()

	const perSender = 50
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				bs[s].Send(int64(i))
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	// Fault schedule concurrent with the send load.
	left, right := []netsim.NodeID{0, 1}, []netsim.NodeID{2}
	time.Sleep(3 * time.Millisecond)
	partition(ts, left, right, true)
	time.Sleep(5 * time.Millisecond)
	partition(ts, left, right, false)
	wg.Wait()

	ok := waitFor(t, func() bool {
		for origin := 0; origin < n; origin++ {
			for node := 0; node < n; node++ {
				if bs[node].Prefix(netsim.NodeID(origin)) != perSender {
					return false
				}
			}
		}
		return true
	}, 10*time.Second)
	if !ok {
		for node := 0; node < n; node++ {
			for origin := 0; origin < n; origin++ {
				t.Logf("node %d prefix(origin %d) = %d", node, origin, bs[node].Prefix(netsim.NodeID(origin)))
			}
		}
		t.Fatal("real-time cluster did not converge")
	}
}

// TestCloseDropsAndDrains: a send after Close is dropped and counted,
// never delivered.
func TestCloseDropsAndDrains(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	var c collector
	ts[1].SetHandler(1, c.handler)
	ts[0].Send(0, 1, "a")
	ts[0].Close()
	before := ts[0].Stats().SendDropped.Load()
	ts[0].Send(0, 1, "b") // after close: dropped
	if got := ts[0].Stats().SendDropped.Load(); got != before+1 {
		t.Errorf("SendDropped = %d after a send on a closed transport, want %d", got, before+1)
	}
	time.Sleep(20 * time.Millisecond)
	if c.len() > 1 {
		t.Error("message accepted after Close")
	}
}

// TestSendCloseRace hammers Send — self-sends and inbound frames from a
// peer — concurrently with Close, and pins Close's contract: once it
// returns, no handler invocation begins. Run under -race.
func TestSendCloseRace(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		ts, _ := newTCPCluster(t, 2)
		var closed atomic.Bool
		ts[0].SetHandler(0, func(from netsim.NodeID, payload any) {
			if closed.Load() {
				t.Error("delivery after Close returned")
			}
		})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					ts[0].Send(0, 0, int64(i))
					ts[1].Send(1, 0, int64(i))
				}
			}()
		}
		close(start)
		time.Sleep(time.Duration(iter%4) * 200 * time.Microsecond)
		ts[0].Close()
		closed.Store(true)
		wg.Wait()
	}
}

// TestCloseIdempotent calls Close many times concurrently with a send
// load and once more afterwards; every call must return, and the
// no-handler-after-Close guarantee must hold from the first return.
// Run under -race.
func TestCloseIdempotent(t *testing.T) {
	ts, _ := newTCPCluster(t, 2)
	var closed atomic.Bool
	ts[0].SetHandler(0, func(from netsim.NodeID, payload any) {
		if closed.Load() {
			t.Error("handler ran after Close returned")
		}
	})
	var senders sync.WaitGroup
	for g := 0; g < 4; g++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < 500; i++ {
				ts[0].Send(0, 0, int64(i))
				ts[1].Send(1, 0, int64(i))
			}
		}()
	}
	var closers sync.WaitGroup
	for g := 0; g < 4; g++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			ts[0].Close()
		}()
	}
	closers.Wait()
	closed.Store(true)
	senders.Wait()
	ts[0].Close()
}
