package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	parbs "repro"
)

// cpuPerDRAM is the DDR2-800 clock ratio every benchmark system uses (a
// 4 GHz core over a 400 MHz command clock).
const cpuPerDRAM = 10

// SimCase is one simulator input generated from a seed: the system, the
// benchmark mix and the scheduler, as a parbs-sim invocation would build
// them.
type SimCase struct {
	Name      string
	System    parbs.System
	Benchmark []string
	Scheduler string
}

// DRAMCycles is the number of DRAM cycles one op simulates: the shared run
// plus one alone run per distinct benchmark.
func (c SimCase) DRAMCycles() int64 {
	distinct := map[string]bool{}
	for _, b := range c.Benchmark {
		distinct[b] = true
	}
	perRun := (c.System.WarmupCycles + c.System.MeasureCycles) / cpuPerDRAM
	return perRun * int64(1+len(distinct))
}

// Run executes the case once through the public entry point.
func (c SimCase) Run(ctx context.Context, opts ...parbs.RunOption) (parbs.Report, error) {
	w, err := parbs.WorkloadFromNames(c.Benchmark...)
	if err != nil {
		return parbs.Report{}, err
	}
	s, err := parbs.SchedulerByName(c.Scheduler)
	if err != nil {
		return parbs.Report{}, err
	}
	return parbs.RunContext(ctx, c.System, w, s, opts...)
}

// Scaled returns the case with its cycle budget divided by f (a short
// warm-up op with the same code path).
func (c SimCase) Scaled(f int64) SimCase {
	c.System.WarmupCycles /= f
	c.System.MeasureCycles /= f
	return c
}

// Paper cycle budgets (Section 7): 200k warm-up plus 2M measured CPU cycles.
const (
	paperWarmup  = 200_000
	paperMeasure = 2_000_000
)

// ind16Mix is the 16-core mix of ind16-parbs: the paper's construction
// (one benchmark drawn per category, twice over) drawn once with the
// default seed. Drawing it per seed would change how many distinct alone
// baselines an op runs (12 to 16), and with it the work per op by up to a
// quarter, so the seed varies the trace streams only.
var ind16Mix = parbs.RandomWorkloads(1, 16, DefaultSeed)[0].Benchmarks()

// simCase generates the named simulator workload for a seed. The seed
// drives the synthetic trace streams (System.Seed).
func simCase(name string, seed int64) (SimCase, error) {
	sys := parbs.DefaultSystem(4)
	sys.Channels = 1
	sys.ChannelMode = parbs.Lockstep
	sys.WarmupCycles = paperWarmup
	sys.MeasureCycles = paperMeasure
	sys.Seed = seed
	c := SimCase{Name: name, System: sys, Scheduler: "PAR-BS"}
	switch name {
	case "csi4-parbs":
		c.Benchmark = parbs.CaseStudyI().Benchmarks()
	case "light4-parbs":
		c.Benchmark = []string{"povray", "gcc", "namd", "h264ref"}
	case "ind16-parbs":
		c.System.Cores = 16
		c.System.Channels = 4
		c.System.ChannelMode = parbs.Independent
		c.Benchmark = ind16Mix
	default:
		return SimCase{}, fmt.Errorf("unknown simulator workload %q", name)
	}
	return c, c.System.Validate()
}

// Digest renders the Report fields the benchmark pins: unfairness,
// weighted and harmonic speedup, bus utilization and each thread's memory
// slowdown, at full float precision.
func Digest(r parbs.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s unf=%v ws=%v hs=%v bus=%v sd=", r.Scheduler, r.Unfairness, r.WeightedSpeedup, r.HmeanSpeedup, r.BusUtilization)
	for i, t := range r.Threads {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%v", t.Benchmark, t.MemSlowdown)
	}
	return b.String()
}

// CheckReport verifies the invariants every report must satisfy whatever
// the seed: one thread per core, finite positive slowdowns, unfairness at
// least 1 and a bus utilization in (0, 1].
func CheckReport(r parbs.Report, cores int) error {
	if len(r.Threads) != cores {
		return fmt.Errorf("report has %d threads for %d cores", len(r.Threads), cores)
	}
	if !(r.Unfairness >= 1) || math.IsInf(r.Unfairness, 0) {
		return fmt.Errorf("unfairness %v is not a finite value >= 1", r.Unfairness)
	}
	if !(r.BusUtilization > 0 && r.BusUtilization <= 1) {
		return fmt.Errorf("bus utilization %v is outside (0, 1]", r.BusUtilization)
	}
	for _, v := range []float64{r.WeightedSpeedup, r.HmeanSpeedup} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("speedup %v is not finite and positive", v)
		}
	}
	for _, t := range r.Threads {
		if !(t.MemSlowdown > 0) || math.IsInf(t.MemSlowdown, 0) {
			return fmt.Errorf("thread %s slowdown %v is not finite and positive", t.Benchmark, t.MemSlowdown)
		}
	}
	return nil
}

// Checker holds the expected digest of a workload's ops: the pinned one
// for the default seed, otherwise the first op's, so every later op on the
// same seed must reproduce it byte for byte.
type Checker struct {
	Cores  int
	Expect string
}

// Check validates one op's report.
func (k *Checker) Check(r parbs.Report) error {
	if err := CheckReport(r, k.Cores); err != nil {
		return err
	}
	d := Digest(r)
	if k.Expect == "" {
		k.Expect = d
		return nil
	}
	if d != k.Expect {
		return fmt.Errorf("report digest changed:\n  got  %s\n  want %s", d, k.Expect)
	}
	return nil
}

// newChecker returns the checker for a workload and seed.
func newChecker(c SimCase, seed int64) *Checker {
	k := &Checker{Cores: c.System.Cores}
	if seed == DefaultSeed {
		k.Expect = pinnedDigests[c.Name]
	}
	return k
}

// setUpSim builds the workload's inputs and runs one short op over the
// same code path, which faults in code and heap; it returns the case and
// the time taken.
func setUpSim(ctx context.Context, name string, seed int64) (SimCase, float64, error) {
	t0 := time.Now()
	c, err := simCase(name, seed)
	if err != nil {
		return c, 0, err
	}
	if _, err := c.Scaled(20).Run(ctx); err != nil {
		return c, 0, fmt.Errorf("warm-up op: %w", err)
	}
	return c, time.Since(t0).Seconds(), nil
}

// setupEvery is how many ops a run makes between two further set-ups, so
// that setup_s is a median over the whole run.
const setupEvery = 4

// runSim measures a simulator workload with tracing off: ops alternate
// with reference slices, and every setupEvery-th op with a set-up.
func runSim(ctx context.Context, name string, seed int64, seconds float64, out *Output) error {
	var c SimCase
	var setup Sample
	for i := 0; i < setupReps; i++ {
		var s float64
		var err error
		if c, s, err = setUpSim(ctx, name, seed); err != nil {
			return err
		}
		setup = append(setup, s)
	}
	ref := newRefClock()
	ref.Slice() // warms the kernel up; not a sample
	ref.Slices = nil
	check := newChecker(c, seed)
	var walls Sample
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(walls) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		rep, err := c.Run(ctx)
		wall := time.Since(t0)
		if err == nil {
			err = check.Check(rep)
		}
		out.Op(fmt.Sprintf("op %d", len(walls)), err)
		walls = append(walls, msOf(wall))
		ref.Slice()
		if len(walls)%setupEvery == 0 {
			_, s, err := setUpSim(ctx, name, seed)
			if err != nil {
				return err
			}
			setup = append(setup, s)
		}
	}
	out.Note("report digest %s", check.Expect)
	reportSimMetrics(out, c, setup, walls, ref)
	return nil
}

func reportSimMetrics(out *Output, c SimCase, setup, walls Sample, ref *RefClock) {
	n := len(walls)
	busy := walls.Sum() / ref.Mean()
	p50, _ := walls.Percentile(50)
	p90, _ := walls.Percentile(90)
	out.Note("%s", ref.Note())
	out.Set("setup_s", setup.Median(), "s", fmt.Sprintf("median of %d set-ups spread over the run", len(setup)))
	out.Set("dram_cycles_per_ref", float64(c.DRAMCycles())*float64(n)/busy, "1/ref",
		fmt.Sprintf("%d DRAM cycles/op (shared + alone) x %d ops / %.2f ref (%.3f s)", c.DRAMCycles(), n, busy, walls.Sum()/1000))
	out.Set("jobs_per_ref", float64(n)/busy, "1/ref", fmt.Sprintf("%d ops / %.2f ref, one at a time", n, busy))
	out.Set("job_ref_p50", ref.Ratio(walls, 50), "ref", fmt.Sprintf("%.3f ms, n=%d (a job is one RunContext call)", p50, n))
	out.Set("job_ref_p90", ref.Ratio(walls, 90), "ref", fmt.Sprintf("%.3f ms, n=%d", p90, n))
}
