// Command hachaos drives the chaoskit harness from the command line:
// seeded chaos plans — topology, workload, partitions, crashes, agent
// moves — executed on the deterministic simulator and audited against
// each control option's invariant ladder (mutual consistency always;
// fragmentwise serializability for Sections 4.3/4.4; full global
// serializability for Sections 4.1/4.2; conservation for the banking
// workload; liveness after repair). Failing plans are shrunk to
// minimal reproducers.
//
//	hachaos -seeds 64                         # 64 seeds x all profiles
//	hachaos -seeds 200 -profile moving -workers 8
//	hachaos -seeds 64 -profile parallel       # the sharded apply driver
//	hachaos -replay 15 -profile moving -v     # re-run one plan exactly
//	hachaos -seeds 64 -shrink -out repros/    # minimize any failures
//
// Exit status is nonzero on any invariant violation. The same seeds
// always produce the same plans, executions, and verdicts.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"fragdb/internal/chaoskit"
	"fragdb/internal/metrics"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 64, "seeds per profile")
		start    = flag.Int64("start", 1, "first seed")
		profile  = flag.String("profile", "all", "profiles to sweep: comma list of "+strings.Join(chaoskit.ProfileNames(), ",")+`, or "all" (the first five)`)
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel plan executions")
		shrink   = flag.Bool("shrink", false, "minimize failing plans")
		out      = flag.String("out", "", "directory for reproducer bundles (implies -shrink)")
		replay   = flag.Int64("replay", 0, "re-run the single plan with this seed (requires one -profile)")
		verbose  = flag.Bool("v", false, "print one line per plan")
		traceCap = flag.Int("trace", 0, "per-node flight-recorder capacity (0 disables); failing plans dump their trailing trace")
	)
	flag.Parse()

	if *seeds < 0 {
		fmt.Fprintln(os.Stderr, "hachaos: -seeds must be >= 0")
		os.Exit(2)
	}
	profiles, err := selectProfiles(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hachaos:", err)
		os.Exit(2)
	}

	if *replay != 0 {
		if len(profiles) != 1 {
			fmt.Fprintln(os.Stderr, "hachaos: -replay needs exactly one -profile")
			os.Exit(2)
		}
		plan := chaoskit.Generate(*replay, profiles[0])
		if *verbose {
			fmt.Println(plan.GoLiteral())
		}
		rep := chaoskit.Execute(plan, chaoskit.RunOpts{TraceCap: *traceCap})
		fmt.Println(rep.String())
		for _, c := range rep.Failures() {
			fmt.Printf("  %-22s %v\n", c.Name, c.Err)
		}
		if rep.Trace != "" {
			fmt.Println(rep.Trace)
		}
		if rep.Failed() {
			os.Exit(1)
		}
		return
	}

	chaos := &metrics.Chaos{}
	opts := chaoskit.SweepOpts{
		Workers:  *workers,
		Chaos:    chaos,
		Shrink:   *shrink || *out != "",
		ReproDir: *out,
		TraceCap: *traceCap,
	}
	if *verbose {
		opts.Log = func(line string) { fmt.Println(line) }
	}
	res := chaoskit.Sweep(profiles, *start, *seeds, opts)

	fmt.Printf("campaign: %d plans across %d profile(s), seeds %d..%d\n",
		len(res.Reports), len(profiles), *start, *start+int64(*seeds)-1)
	fmt.Print(chaos.Table())

	failures := res.Failures()
	for _, rep := range failures {
		fmt.Printf("FAIL %s\n", rep.String())
		for _, c := range rep.Failures() {
			fmt.Printf("  %-22s %v\n", c.Name, c.Err)
		}
		if rep.Trace != "" {
			fmt.Println(rep.Trace)
		}
	}
	for _, sr := range res.Shrinks {
		fmt.Printf("shrunk seed=%d profile=%s: size %d -> %d in %d executions\n",
			sr.Minimal.Seed, sr.Minimal.Profile,
			sr.Original.Size(), sr.Minimal.Size(), sr.Executions)
	}
	for _, p := range res.ReproPaths {
		fmt.Println("repro:", p)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "hachaos: %d failing plan(s) — counterexample found!\n", len(failures))
		os.Exit(1)
	}
	fmt.Println("all invariants held")
}

func selectProfiles(arg string) ([]chaoskit.Profile, error) {
	if arg == "all" {
		return append(chaoskit.Profiles(), chaoskit.BankProfile()), nil
	}
	var out []chaoskit.Profile
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		pr, ok := chaoskit.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", name)
		}
		out = append(out, pr)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no profiles selected")
	}
	return out, nil
}
