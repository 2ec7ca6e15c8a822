package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"fragdb/internal/wire"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap is the heap still in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// meter brackets a phase: wall time, CPU time and allocations.
type meter struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
}

func startMeter() meter { return meter{wall: time.Now(), cpu: cpuTime(), allocs: mallocs()} }

// phaseCost is what a metered phase spent.
type phaseCost struct {
	wall, cpu time.Duration
	allocs    uint64
}

func (m meter) stop() phaseCost {
	return phaseCost{wall: time.Since(m.wall), cpu: cpuTime() - m.cpu, allocs: mallocs() - m.allocs}
}

// wireReplay is the codec cost of a captured payload mix.
type wireReplay struct {
	encodeNs, decodeNs, bytes float64
}

// replayMinTime is how long each replay direction runs at least.
const replayMinTime = 100 * time.Millisecond

// replayWire encodes and decodes the captured payloads through the wire
// codec, outside any timed phase, and checks that every payload
// survives the round trip.
func replayWire(sample []any) (wireReplay, error) {
	var r wireReplay
	if len(sample) == 0 {
		return r, nil
	}
	enc := make([][]byte, len(sample))
	var total int
	for i, p := range sample {
		b, err := wire.Encode(p)
		if err != nil {
			return r, fmt.Errorf("wire replay: encode %T: %w", p, err)
		}
		if _, err := wire.Decode(b); err != nil {
			return r, fmt.Errorf("wire replay: decode %T: %w", p, err)
		}
		enc[i] = b
		total += len(b)
	}
	r.bytes = float64(total) / float64(len(sample))
	var msgs int
	start := time.Now()
	for time.Since(start) < replayMinTime {
		for _, p := range sample {
			if _, err := wire.Encode(p); err != nil {
				return r, err
			}
		}
		msgs += len(sample)
	}
	r.encodeNs = float64(time.Since(start).Nanoseconds()) / float64(msgs)
	msgs = 0
	start = time.Now()
	for time.Since(start) < replayMinTime {
		for _, b := range enc {
			if _, err := wire.Decode(b); err != nil {
				return r, err
			}
		}
		msgs += len(enc)
	}
	r.decodeNs = float64(time.Since(start).Nanoseconds()) / float64(msgs)
	return r, nil
}

// idleChunks is how many chunks an idle phase is timed in; the idle
// metrics are the median chunk's, so a moment of interference from the
// rest of the machine moves one chunk, not the figure.
const idleChunks = 40

// measureIdle runs idleChunks chunks of the idle phase, each chunk long
// on the workload's clock, through run and records the median chunk's
// cost per second of chunk: time and allocations. With oneThread (the
// simulator, whose idle work all runs on the calling goroutine) the time
// is wall time; otherwise (over TCP, where the wall clock paces the
// work) it is the process's CPU time.
//
// The collector is paused meanwhile. A collection marks the whole live
// heap, mostly the busy phase's history, so whether one fell into the
// idle phase would decide the figure; with it paused the time is the
// cluster's own work, and the garbage that work leaves shows in the
// allocation figure.
func measureIdle(rs *runStats, chunk time.Duration, oneThread bool, run func(time.Duration)) {
	// Collect the busy phase's garbage and return it to the OS first,
	// so the runtime's background scavenging is not charged as idle.
	debug.FreeOSMemory()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spent := make([]float64, idleChunks)
	allocs := make([]float64, idleChunks)
	for i := range spent {
		m := startMeter()
		run(chunk)
		c := m.stop()
		spent[i], allocs[i] = float64(c.cpu), float64(c.allocs)
		if oneThread {
			spent[i] = float64(c.wall)
		}
	}
	rs.idleUsPerSec = median(spent) / 1e3 / chunk.Seconds()
	rs.idleAllocsPerSec = median(allocs) / chunk.Seconds()
}

// finishRun runs a pass's correctness audit, timing it, fills in the
// pass's outcome counts and, for a traced pass, replays the captured
// payloads through the codec.
func finishRun(rs *runStats, l *txnLog, ws *wireStats, tr *tracer, audit func() error) error {
	start, wall := tr.now(), time.Now()
	if err := audit(); err != nil {
		return fmt.Errorf("correctness: %w", err)
	}
	rs.audit = time.Since(wall)
	tr.note(spAudit, start, tr.now())
	rs.offered, rs.failed = l.offered, l.failed
	rs.spans = tr
	if ws == nil {
		return nil
	}
	start = tr.now()
	r, err := replayWire(ws.payloads())
	if err != nil {
		return fmt.Errorf("correctness: %w", err)
	}
	tr.note(spWire, start, tr.now())
	rs.replay = r
	return nil
}
