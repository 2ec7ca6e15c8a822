package main

import (
	"sync"
	"sync/atomic"

	"fragdb/internal/broadcast"
	"fragdb/internal/netsim"
	"fragdb/internal/txn"
	"fragdb/internal/wire"
)

// payloadKind classes transport payloads for per-kind accounting.
type payloadKind int

const (
	kindData     payloadKind = iota // broadcast.Data and DataBatch
	kindDigest                      // broadcast.Digest (anti-entropy)
	kindSnapshot                    // broadcast.SnapshotOffer (catch-up)
	kindControl                     // core's direct messages (locks, acks, ...)
	nKinds
)

var kindNames = [nKinds]string{"data", "digest", "snapshot", "control"}

func kindOf(p any) payloadKind {
	switch p.(type) {
	case broadcast.Data, broadcast.DataBatch:
		return kindData
	case broadcast.Digest:
		return kindDigest
	case broadcast.SnapshotOffer:
		return kindSnapshot
	}
	return kindControl
}

// txnOf returns the transaction a payload carries, if it carries one.
func txnOf(p any) uint64 {
	if d, ok := p.(broadcast.Data); ok {
		if q, ok := d.Payload.(txn.Quasi); ok {
			return txnKey(q.Txn)
		}
	}
	return 0
}

// sampleEvery and maxSample bound the payloads captured for the codec
// replay: every 8th send, at most 4096 of them.
const (
	sampleEvery = 8
	maxSample   = 4096
)

// wireStats totals a metered transport's traffic. One value may be
// shared by the transports of several nodes.
type wireStats struct {
	sent, bytes, delivered [nKinds]atomic.Uint64

	mu     sync.Mutex
	seen   uint64
	sample []any
}

// counts is a copy of the per-kind totals, for phase deltas.
type counts struct{ sent, bytes, delivered [nKinds]uint64 }

func (w *wireStats) snapshot() counts {
	var c counts
	if w == nil {
		return c
	}
	for k := 0; k < int(nKinds); k++ {
		c.sent[k] = w.sent[k].Load()
		c.bytes[k] = w.bytes[k].Load()
		c.delivered[k] = w.delivered[k].Load()
	}
	return c
}

func (c counts) minus(d counts) counts {
	for k := 0; k < int(nKinds); k++ {
		c.sent[k] -= d.sent[k]
		c.bytes[k] -= d.bytes[k]
		c.delivered[k] -= d.delivered[k]
	}
	return c
}

func (w *wireStats) capture(p any) {
	w.mu.Lock()
	w.seen++
	if w.seen%sampleEvery == 0 && len(w.sample) < maxSample {
		w.sample = append(w.sample, p)
	}
	w.mu.Unlock()
}

func (w *wireStats) payloads() []any {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]any(nil), w.sample...)
}

// meteredTransport wraps the transport handed to core.Config.Transport
// (netsim in the simulator, rtnet.TCP behind an rtnet.Loop over TCP).
// With stats set it counts and sizes every Send and delivery by payload
// kind, captures a payload sample for the codec replay, and, with a
// tracer, records send and delivery spans on the node's track. Without
// stats it passes everything through.
type meteredTransport struct {
	inner netsim.Transport // set before the cluster starts
	n     int
	stats *wireStats
	tr    *tracer
	track func(netsim.NodeID) int
	// onDigest, if set, is called after a node sends a digest: the
	// TCP workload aligns its heal with a gossip round through it.
	onDigest func(from netsim.NodeID)
}

func (m *meteredTransport) N() int { return m.n }

func (m *meteredTransport) Reachable(a, b netsim.NodeID) bool { return m.inner.Reachable(a, b) }

func (m *meteredTransport) Send(from, to netsim.NodeID, p any) {
	if m.stats == nil {
		m.inner.Send(from, to, p)
		if m.onDigest != nil {
			if _, ok := p.(broadcast.Digest); ok {
				m.onDigest(from)
			}
		}
		return
	}
	k := kindOf(p)
	m.stats.sent[k].Add(1)
	m.stats.bytes[k].Add(uint64(wire.Size(p)))
	m.stats.capture(p)
	tok := m.tr.begin(m.track(from), spSend+spanName(k), txnOf(p))
	m.inner.Send(from, to, p)
	m.tr.end(m.track(from), tok)
	if k == kindDigest && m.onDigest != nil {
		m.onDigest(from)
	}
}

func (m *meteredTransport) SetHandler(node netsim.NodeID, h netsim.Handler) {
	if m.stats == nil {
		m.inner.SetHandler(node, h)
		return
	}
	track := m.track(node)
	m.inner.SetHandler(node, func(from netsim.NodeID, p any) {
		k := kindOf(p)
		m.stats.delivered[k].Add(1)
		tok := m.tr.begin(track, spDeliver+spanName(k), txnOf(p))
		h(from, p)
		m.tr.end(track, tok)
	})
}
