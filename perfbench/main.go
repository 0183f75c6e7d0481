// Command perfbench is the repository benchmark: it runs one named
// workload through the public entry points (parbs.RunContext for the
// simulator, an in-process parbs-serve handler behind a loopback HTTP
// server for the service), checks every output, and prints the end-to-end
// metrics, or with -trace 1 the per-layer split, as a final JSON line.
//
//	bash perfbench/run.sh --workload csi4-parbs --seed 1 --seconds 20 --trace 0
//
// Workloads: csi4-parbs, light4-parbs, ind16-parbs, serve-mixed (see
// BENCHMARK.json for why each exists). Inputs derive from -seed only.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// DefaultSeed is the seed whose simulator report digests are pinned in
// pinnedDigests; HeldOutSeed is the seed kept back for confirming a claim.
const (
	DefaultSeed = 1
	HeldOutSeed = 7
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

var workloads = []string{"csi4-parbs", "light4-parbs", "ind16-parbs", "serve-mixed"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloads))
	seed := fs.Int64("seed", DefaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	// The traced run's span file goes next to the build outputs.
	spanDir := os.Getenv("CARGO_TARGET_DIR")
	if spanDir == "" {
		spanDir = ".bench_build"
	}
	spanDir = filepath.Join(spanDir, "perfbench-spans")
	fmt.Fprintln(stdout, hostStamp(*name, *seed, *traced == 1))

	ctx := context.Background()
	out := newOutput()
	var err error
	switch {
	case *name == "serve-mixed" && *traced == 0:
		err = runServe(ctx, *seed, *seconds, out)
	case *traced == 0:
		err = runSim(ctx, *name, *seed, *seconds, out)
	default:
		err = runTraced(ctx, *name, *seed, *seconds, spanDir, stdout, out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if *traced == 0 {
		note := "VmHWM of the benchmark process"
		if *name == "serve-mixed" {
			note += fmt.Sprintf(", a service holding at most %d jobs", serveClients*epochSubmits)
		}
		out.Set("peak_rss_mb", peakRSSMB(), "MiB", note)
		ok := 1.0
		if out.Attempted > 0 {
			ok = float64(out.Attempted-out.Failed) / float64(out.Attempted)
		}
		out.Set("ok_frac", ok, "frac", fmt.Sprintf("1 - failed/attempted = 1 - %d/%d", out.Failed, out.Attempted))
	}
	if err := out.Print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
