// Command fragbench is fragdb's benchmark: it runs one workload from a
// seed, checks that the outputs are correct, and prints every metric by
// name with its unit as one JSON object on the last line of standard
// output. With -trace 0 it prints the end-to-end metrics; with -trace 1
// it runs a traced pass and prints the per-layer metrics.
//
//	go run . --workload sim-commit --seed 1 --seconds 10 --trace 0
//
// The engine is measured from outside, through its public APIs; the
// benchmark adds no instrumentation inside the program. README.md
// explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options select one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workloads maps each workload name to its driver. A driver runs the
// workload once with the given budget and returns its raw measurements,
// or an error when a correctness check fails.
var workloads = map[string]func(o options, traced bool, share float64) (*runStats, error){
	"sim-commit":    runSimCommit,
	"sim-partition": runSimPartition,
	"tcp-loopback":  runTCPLoopback,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: sim-commit, sim-partition or tcp-loopback")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation. An untraced invocation runs
// the workload once and reports end-to-end metrics. A traced invocation
// spends half its budget on an untraced reference pass and half on a
// traced pass, so the tracing overhead is measured on the same work.
func run(o options) (*result, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, names)
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	var (
		rs  *runStats
		err error
		ms  map[string]metric
	)
	if !o.trace {
		if rs, err = drive(o, false, 1); err != nil {
			return nil, err
		}
		ms = endToEnd(rs)
	} else {
		ref, err := drive(o, false, 0.5)
		if err != nil {
			return nil, err
		}
		if rs, err = drive(o, true, 0.5); err != nil {
			return nil, err
		}
		if err := rs.spans.write(o); err != nil {
			return nil, err
		}
		if o.workload == "sim-commit" {
			if err := checkCoverage(rs); err != nil {
				return nil, err
			}
		}
		ms = perLayer(rs, ref)
	}
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return &result{
		Correct:   true,
		Attempted: rs.offered,
		Failed:    rs.failed,
		Metrics:   ms,
	}, nil
}
