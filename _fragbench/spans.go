package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanName identifies a layer boundary the benchmark records.
type spanName int

const (
	spStep     spanName                       = iota // simtime.Scheduler.Step
	spSubmit                                         // core.Node.Submit
	spProgram                                        // transaction program code between Tx calls
	spTxRead                                         // Tx.ReadInt (asynchronous: spans virtual waits)
	spTxWrite                                        // Tx.Write (asynchronous)
	spTxThink                                        // Tx.Think (asynchronous)
	spSend                                           // Transport.Send, by payload kind
	spDeliver  = spSend + spanName(nKinds)           // wrapped delivery handler, by kind
	spInject   = spDeliver + spanName(nKinds)        // rtnet.Loop.Inject
	spWire     = spInject + 1                        // wire replay
	spAudit    = spWire + 1                          // correctness audit
	nSpanNames = spAudit + 1
)

// spanLabels holds every span name's text, so recording a span does
// not format a string.
var spanLabels [nSpanNames]string

func init() {
	for i := range spanLabels {
		spanLabels[i] = spanName(i).label()
	}
}

func (n spanName) String() string { return spanLabels[n] }

func (n spanName) label() string {
	switch {
	case n == spStep:
		return "simtime.step"
	case n == spSubmit:
		return "core.submit"
	case n == spProgram:
		return "core.program"
	case n == spTxRead:
		return "core.tx.read"
	case n == spTxWrite:
		return "core.tx.write"
	case n == spTxThink:
		return "core.tx.think"
	case n >= spSend && n < spDeliver:
		return "transport.send." + kindNames[n-spSend]
	case n >= spDeliver && n < spInject:
		return "transport.deliver." + kindNames[n-spDeliver]
	case n == spInject:
		return "rtnet.inject"
	case n == spWire:
		return "wire.replay"
	case n == spAudit:
		return "history.audit"
	}
	return fmt.Sprintf("span%d", int(n))
}

// span is one recorded interval. Times are wall nanoseconds since the
// tracer's epoch; parent indexes the stored spans (-1: root or not
// stored). Asynchronous spans (Tx calls, which wait in virtual time
// while other work runs) are kept out of the self-time accounting.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Txn    uint64 `json:"txn,omitempty"`
	Async  bool   `json:"async,omitempty"`
}

type openSpan struct {
	idx   int32
	name  spanName
	start int64
	child int64
}

// spanAgg totals one span name over the traced phase.
type spanAgg struct {
	count       int64
	total, self int64 // ns
}

// spanToken is what begin hands back to end: whether a span was pushed.
type spanToken bool

// maxStoredSpans caps the spans kept in memory for the trace file; the
// aggregates cover every span.
const maxStoredSpans = 1 << 16

// tracer records spans in memory while active. Each track is one
// logical thread of control: a simulator's single goroutine, or one
// rtnet loop (transaction programs run on their own goroutines but only
// while their loop waits for them, so they share its track). A nil
// tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	active bool
	stored []span
	stacks [][]openSpan
	agg    [nSpanNames]spanAgg
	runs   int64
}

func newTracer(tracks int) *tracer {
	return &tracer{epoch: time.Now(), stacks: make([][]openSpan, tracks)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) setActive(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.active = on
	t.mu.Unlock()
}

// begin opens a span on a track as a child of the track's innermost
// open span.
func (t *tracer) begin(track int, name spanName, txn uint64) spanToken {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active {
		return false
	}
	st := t.stacks[track]
	parent := int32(-1)
	if len(st) > 0 {
		parent = st[len(st)-1].idx
	}
	idx := int32(-1)
	if len(t.stored) < maxStoredSpans {
		idx = int32(len(t.stored))
		t.stored = append(t.stored, span{Name: name.String(), Parent: parent, Txn: txn})
	}
	start := t.now()
	if idx >= 0 {
		t.stored[idx].Start = start
	}
	t.stacks[track] = append(st, openSpan{idx: idx, name: name, start: start})
	return true
}

// end closes the track's innermost span: its duration is charged to its
// name, its self time is the duration minus its children's, and the
// duration counts as child time of its parent.
func (t *tracer) end(track int, tok spanToken) {
	if t == nil || !tok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	st := t.stacks[track]
	o := st[len(st)-1]
	st = st[:len(st)-1]
	t.stacks[track] = st
	dur := now - o.start
	a := &t.agg[o.name]
	a.count++
	a.total += dur
	a.self += dur - o.child
	if len(st) > 0 {
		st[len(st)-1].child += dur
	}
	if o.idx >= 0 {
		t.stored[o.idx].End = now
	}
}

// async records a span that does not nest within its track.
func (t *tracer) async(name spanName, start, end int64, txn uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.active {
		return
	}
	a := &t.agg[name]
	a.count++
	a.total += end - start
	if len(t.stored) < maxStoredSpans {
		t.stored = append(t.stored, span{Name: name.String(), Start: start, End: end, Parent: -1, Txn: txn, Async: true})
	}
}

// note stores a root span measured outside the traced phase (codec
// replay, audit) without adding it to the phase's aggregates.
func (t *tracer) note(name spanName, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stored = append(t.stored, span{Name: name.String(), Start: start, End: end, Parent: -1})
}

func (t *tracer) countRun() {
	t.mu.Lock()
	if t.active {
		t.runs++
	}
	t.mu.Unlock()
}

// stats returns a copy of the aggregates and the program run count.
func (t *tracer) stats() ([nSpanNames]spanAgg, int64) {
	if t == nil {
		return [nSpanNames]spanAgg{}, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.agg, t.runs
}

// selfSum is the summed self time of every nesting span: with spans
// properly nested and covering the traced phase, it equals the phase's
// wall time.
func (t *tracer) selfSum() int64 {
	agg, _ := t.stats()
	var sum int64
	for i := range agg {
		switch spanName(i) {
		case spTxRead, spTxWrite, spTxThink:
			continue
		}
		sum += agg[i].self
	}
	return sum
}

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// write saves the stored spans as JSON lines.
func (t *tracer) write(o options) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.stored {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return nil
}
