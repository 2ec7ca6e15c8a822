package chaoskit

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"fragdb/internal/core"
	"fragdb/internal/metrics"
	"fragdb/internal/netsim"
	"fragdb/internal/trace"
)

// sinkRingCap is a per-node ring large enough to hold every event of one
// plan; runWithSinks checks that nothing was overwritten.
const sinkRingCap = 1 << 14

// runWithSinks executes p with the labeled registry and a full-history
// ring armed (on) or with both off, and returns the report and the
// cluster as it stood after settling.
func runWithSinks(t *testing.T, p Plan, on bool) (*Report, *core.Cluster) {
	t.Helper()
	var cl *core.Cluster
	opts := RunOpts{Sabotage: func(c *core.Cluster, _ Plan) { cl = c }}
	if on {
		opts.TraceCap, opts.labeled = sinkRingCap, true
	}
	rep := Execute(p, opts)
	if on {
		for i := 0; i < p.N; i++ {
			if r := cl.Trace(netsim.NodeID(i)); r.Total() != uint64(r.Len()) {
				t.Fatalf("%s: node %d ring overwrote %d events; raise sinkRingCap",
					rep, i, r.Total()-uint64(r.Len()))
			}
		}
	}
	return rep, cl
}

// counterFields renders every Counters field, atomics by value and
// histograms by snapshot. An unknown field type fails the test, so a new
// field is compared as soon as it exists.
func counterFields(t *testing.T, c *metrics.Counters) []string {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	out := make([]string, v.NumField())
	for i := range out {
		name := v.Type().Field(i).Name
		switch f := v.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			out[i] = fmt.Sprintf("%s=%d", name, f.Load())
		case *metrics.Histogram:
			out[i] = fmt.Sprintf("%s=%+v", name, f.Snapshot())
		default:
			t.Fatalf("Counters.%s has unhandled type %T", name, f)
		}
	}
	return out
}

func sumCounters(v *metrics.CounterVec) (n uint64) {
	for _, s := range v.Samples() {
		n += s.Value
	}
	return n
}

func sumCauses(v *metrics.CauseVec) (n uint64) {
	for _, s := range v.Samples() {
		n += s.Value
	}
	return n
}

// ringKinds counts the recorded events of each kind across all nodes.
func ringKinds(cl *core.Cluster, nodes int) map[trace.Kind]uint64 {
	out := map[trace.Kind]uint64{}
	for i := 0; i < nodes; i++ {
		for _, e := range cl.Trace(netsim.NodeID(i)).Tail(0) {
			out[e.Kind]++
		}
	}
	return out
}

// TestSinksAgreeSweep is the one-instrumentation-path contract: every
// sink is fed by the same engine facts, so with the labeled registry and
// a full-history ring armed,
//
//   - the registry's label sums equal the counters (commits, aborts,
//     applies, forwards);
//   - the ring's commit, abort and apply events equal the counters;
//
// and arming the sinks changes no outcome: Counters is field-for-field
// identical with the registry and ring on and off.
func TestSinksAgreeSweep(t *testing.T) {
	var plans []Plan
	for _, pr := range AllProfiles() {
		for seed := int64(1); seed <= 4; seed++ {
			plans = append(plans, Generate(seed, pr))
		}
	}
	// Moving seeds that forward stragglers after an epoch switch (14,
	// 556), so the forwards sums are not vacuous, and that switch while
	// a quasi is parked on a lock (5298, 9505), which used to forward
	// the old-epoch prefix instead of installing it and diverge.
	moving, _ := ProfileByName("moving")
	for _, seed := range []int64{14, 556, 5298, 9505} {
		plans = append(plans, Generate(seed, moving))
	}
	var forwards uint64
	for _, p := range plans {
		rep, on := runWithSinks(t, p, true)
		_, off := runWithSinks(t, p, false)
		if rep.Failed() {
			t.Fatalf("%s: %v", rep, rep.Failures())
		}
		c, reg := on.Stats(), on.Registry()
		ring := ringKinds(on, p.N)
		for _, chk := range []struct {
			what      string
			got, want uint64
		}{
			{"Σ Commits vs Committed", sumCounters(&reg.Commits), c.Committed.Load()},
			{"Σ Aborts vs Aborted", sumCauses(&reg.Aborts), c.Aborted.Load()},
			{"Σ Applies vs QuasiApplied", sumCounters(&reg.Applies), c.QuasiApplied.Load()},
			{"Σ Forwards vs QuasiForwarded", sumCounters(&reg.Forwards), c.QuasiForwarded.Load()},
			{"ring commits vs Committed", ring[trace.KCommit], c.Committed.Load()},
			{"ring aborts+rejects vs Aborted", ring[trace.KAbort] + ring[trace.KReject], c.Aborted.Load()},
			{"ring applies vs QuasiApplied", ring[trace.KQuasiApply], c.QuasiApplied.Load()},
		} {
			if chk.got != chk.want {
				t.Errorf("%s: %s: %d != %d", rep, chk.what, chk.got, chk.want)
			}
		}
		if a, b := counterFields(t, c), counterFields(t, off.Stats()); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counters differ with sinks on vs off:\n on: %v\noff: %v", rep, a, b)
		}
		forwards += c.QuasiForwarded.Load()
		t.Logf("%s commits=%d aborts=%d applies=%d forwards=%d", rep,
			c.Committed.Load(), c.Aborted.Load(), c.QuasiApplied.Load(), c.QuasiForwarded.Load())
	}
	if forwards == 0 {
		t.Fatal("no straggler was forwarded anywhere in the sweep; the forwards check is vacuous")
	}
}
