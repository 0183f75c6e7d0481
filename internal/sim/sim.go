// Package sim assembles the full system of the paper's Table 2 — cores,
// on-chip DRAM controller and DRAM device — and runs multiprogrammed
// workloads, both shared (all cores active) and alone (one thread on the
// same memory system), producing the raw measurements the metrics package
// turns into the paper's evaluation numbers.
//
// Both channel organizations run through one next-event loop over a slice
// of channel shards, each a device, its controller and its scheduling
// policy. The paper's lock-step (ganged) channels are one shard (Run);
// fully independent channels are one shard per channel behind a routing
// port (RunIndependent). Shards are stepped on the run goroutine in channel
// order (DESIGN.md §14).
package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one simulated system.
type Config struct {
	// Cores is the number of cores (== threads; Section 2's assumption).
	Cores int
	// CPUCyclesPerDRAM is the clock ratio: a 4 GHz core over DDR2-800's
	// 400 MHz command clock gives 10.
	CPUCyclesPerDRAM int64
	// WarmupCPUCycles are simulated then discarded from all statistics.
	WarmupCPUCycles int64
	// MeasureCPUCycles is the measured portion of the run.
	MeasureCPUCycles int64
	// CompletionOverheadCPU is the fixed L2-miss round-trip overhead added
	// on top of the DRAM service time (cache hierarchy, on-chip network),
	// calibrated so a row-hit load's uncontended round trip is ~160 CPU
	// cycles as in Table 2.
	CompletionOverheadCPU int64
	// Timing and Geometry configure the DRAM device. Geometry.Channels
	// holds the lock-step channel count (1, 2, 4 for 4-, 8-, 16-core
	// systems, scaling bandwidth with cores as in Table 2).
	Timing   dram.Timing
	Geometry dram.Geometry
	// Ctrl configures the memory controller; Ctrl.Threads is overridden
	// with Cores.
	Ctrl memctrl.Config
	// Core configures each processing core.
	Core cpu.Config
	// Seed drives workload generation.
	Seed int64
	// CommandLog, when non-nil, receives every issued DRAM command
	// (debugging/timelines; see memctrl.Timeline).
	CommandLog func(memctrl.CommandEvent)
	// Probe, when non-nil, samples telemetry on the probe's epoch during
	// the measured window. Probes are passive: the command stream is
	// byte-identical with and without one (pinned by the equivalence
	// tests), and the nil-probe path performs no extra work.
	Probe *telemetry.Probe
	// Tracer, when non-nil, records request/batch lifecycle events for the
	// run (warmup included — forensics need complete request histories).
	// Tracers obey the same discipline as probes: passive, nil-gated, and
	// pinned non-perturbing by the equivalence tests.
	Tracer *trace.Tracer
	// Progress, when non-nil, is called at every epoch checkpoint
	// (heartbeats for long runs). It must not block.
	Progress func(Progress)
	// Context, when non-nil, is polled at every epoch checkpoint;
	// cancellation aborts the run with the context's error.
	Context context.Context
	// ForceTicked forces the legacy one-cycle-per-iteration run loop,
	// disabling next-event cycle skipping. The command stream, telemetry
	// report and trace log are byte-identical either way — pinned by the
	// differential equivalence tests — so the flag exists for differential
	// testing and as an escape hatch, not for correctness.
	ForceTicked bool
}

// Progress is a heartbeat snapshot delivered to Config.Progress.
type Progress struct {
	// DRAMCycle and TotalDRAMCycles locate the run: DRAMCycle/Total is the
	// fraction complete (warmup included).
	DRAMCycle       int64
	TotalDRAMCycles int64
	// CPUCycle is DRAMCycle in CPU cycles.
	CPUCycle int64
	// Warmup reports whether the run is still inside the warmup window.
	Warmup bool
	// CommandsIssued is the cumulative DRAM command count.
	CommandsIssued int64
	// PendingReads is the request-buffer occupancy at the checkpoint,
	// summed over channels in independent-channel runs.
	PendingReads int
	// PendingPerChannel is the per-channel request-buffer occupancy of an
	// independent-channel run (RunIndependent), indexed by channel; nil for
	// single-stream runs.
	PendingPerChannel []int
}

// DefaultConfig returns the paper's baseline system for the given core
// count: DDR2-800 with 8 banks, channels scaled 1/2/4 for 4/8/16 cores,
// a 128-entry request buffer and 128-entry instruction windows.
func DefaultConfig(cores int) Config {
	g := dram.DefaultGeometry()
	g.Channels = cores / 4
	if g.Channels < 1 {
		g.Channels = 1
	}
	return Config{
		Cores:                 cores,
		CPUCyclesPerDRAM:      10,
		WarmupCPUCycles:       200_000,
		MeasureCPUCycles:      2_000_000,
		CompletionOverheadCPU: 60,
		Timing:                dram.DDR2_800(),
		Geometry:              g,
		Ctrl:                  memctrl.DefaultConfig(cores),
		Core:                  cpu.DefaultConfig(),
		Seed:                  1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("sim: cores must be positive, got %d", c.Cores)
	case c.CPUCyclesPerDRAM <= 0:
		return fmt.Errorf("sim: CPU:DRAM clock ratio must be positive")
	case c.MeasureCPUCycles <= 0:
		return fmt.Errorf("sim: measurement window must be positive")
	case c.WarmupCPUCycles < 0 || c.CompletionOverheadCPU < 0:
		return fmt.Errorf("sim: warmup and overhead must be non-negative")
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	return nil
}

// Result is the outcome of one run.
type Result struct {
	// Policy is the scheduler's name.
	Policy string
	// Threads holds one outcome per core, in core order.
	Threads []metrics.ThreadOutcome
	// DRAM holds device-level counters for the measured window.
	DRAM dram.Stats
	// DRAMCycles is the measured window length in DRAM cycles.
	DRAMCycles int64
	// EvaluatedCycles counts the DRAM cycles the run loop actually
	// simulated and SkippedCycles those the next-event clock jumped over
	// (warmup included in both; they sum to the run's total span). Under
	// Config.ForceTicked SkippedCycles is 0.
	EvaluatedCycles int64
	SkippedCycles   int64
}

// BusUtilization returns the measured data-bus utilization.
func (r Result) BusUtilization() float64 {
	if r.DRAMCycles == 0 {
		return 0
	}
	return float64(r.DRAM.BusyCycles) / float64(r.DRAMCycles)
}

// livenessWindowDRAM is the scheduling-deadlock deadline in elapsed DRAM
// cycles: a run aborts when reads stay buffered with no command issued for
// longer than this. The next-event clock caps its jumps at this deadline
// whenever reads are pending, so the guard fires on the same cycle whether
// cycles are skipped or ticked.
const livenessWindowDRAM = 100_000

// Run simulates the mix on cfg under the given scheduling policy, with the
// paper's lock-step channels: one shard whose device gangs
// cfg.Geometry.Channels channels into one command stream. The policy
// instance must be fresh (policies are stateful and single-use).
func Run(cfg Config, mix workload.Mix, policy memctrl.Policy) (Result, error) {
	return run(cfg, mix, false, func() memctrl.Policy { return policy })
}

// RunIndependent simulates the mix on a system whose channels are fully
// independent — one device, one controller and one fresh scheduling policy
// per channel, with cache lines spread across channels by dram.ChannelRoute
// — instead of the paper's lock-step (ganged) channels. This is the
// organization of most contemporary multi-channel controllers and the
// setting of the NFQ and STFM papers; comparing it against Run with the
// same total bandwidth isolates the effect of splitting the scheduler's
// view.
//
// cfg.Geometry.Channels gives the channel count; each per-channel device
// is built with Channels = 1 (a full-width burst). factory must return a
// fresh policy per call (policies are stateful).
func RunIndependent(cfg Config, mix workload.Mix, factory func() memctrl.Policy) (Result, error) {
	return run(cfg, mix, true, factory)
}

// RunAlone simulates one benchmark alone on the same memory system (same
// channel count, banks and controller) — the baseline for slowdown metrics.
// The scheduling policy is irrelevant with one thread; FR-FCFS is used as
// in the paper's alone runs. Telemetry probes, tracers and command logs
// apply only to the shared run and are stripped here; Context and Progress
// carry over.
func RunAlone(cfg Config, p workload.Profile) (metrics.ThreadOutcome, error) {
	return runAlone(cfg, p, false)
}

// RunAloneIndependent simulates one benchmark alone on the same independent-
// channel memory system — the slowdown baseline matching RunIndependent the
// way RunAlone matches Run.
func RunAloneIndependent(cfg Config, p workload.Profile) (metrics.ThreadOutcome, error) {
	return runAlone(cfg, p, true)
}

func runAlone(cfg Config, p workload.Profile, independent bool) (metrics.ThreadOutcome, error) {
	alone := cfg
	alone.Cores = 1
	alone.Ctrl.Threads = 1
	alone.Probe = nil
	alone.Tracer = nil
	alone.CommandLog = nil
	mix := workload.Mix{Name: "alone-" + p.Name, Benchmarks: []workload.Profile{p}}
	res, err := run(alone, mix, independent, frfcfsPolicy)
	if err != nil {
		return metrics.ThreadOutcome{}, err
	}
	return res.Threads[0], nil
}

// run is the one run loop. A lock-step system is one shard over the
// ganged device whose port passes addresses through; an independent one is
// a shard per channel behind a port that routes by dram.ChannelRoute.
// newPolicy is called once per shard, in channel order.
func run(cfg Config, mix workload.Mix, independent bool, newPolicy func() memctrl.Policy) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	n, geom := 1, cfg.Geometry
	if independent {
		if n = geom.Channels; n < 1 {
			return Result{}, fmt.Errorf("sim: independent channels need Channels >= 1, got %d", n)
		}
		geom.Channels = 1
	}
	if len(mix.Benchmarks) != cfg.Cores {
		return Result{}, fmt.Errorf("sim: mix %q has %d benchmarks for %d cores",
			mix.Name, len(mix.Benchmarks), cfg.Cores)
	}

	ratio := cfg.CPUCyclesPerDRAM
	overhead := cfg.CompletionOverheadCPU
	cores := make([]*cpu.Core, cfg.Cores)
	shards := make([]*shard, n)
	for ch := range shards {
		dev, err := dram.NewDevice(cfg.Timing, geom)
		if err != nil {
			return Result{}, err
		}
		ctrlCfg := cfg.Ctrl
		ctrlCfg.Threads = cfg.Cores
		// Stamp the channel and stride request IDs so they stay unique
		// across channels (trace analysis keys on them).
		ctrlCfg.Channel = ch
		ctrlCfg.IDBase = int64(ch)
		ctrlCfg.IDStride = int64(n)
		pol := newPolicy()
		if pol == nil {
			return Result{}, fmt.Errorf("sim: policy factory returned nil")
		}
		ctrl, err := memctrl.NewController(dev, pol, ctrlCfg)
		if err != nil {
			return Result{}, err
		}
		// Shards step in channel order on this goroutine, so completions and
		// command-log events are delivered as the controller produces them.
		ctrl.SetOnComplete(func(r *memctrl.Request, endDRAM int64) {
			cores[r.Thread].Complete(r, endDRAM*ratio+overhead)
		})
		if cfg.CommandLog != nil {
			ctrl.SetCommandLog(cfg.CommandLog)
		}
		shards[ch] = &shard{ctrl: ctrl, dev: dev, policy: pol}
	}
	policyName := shards[0].policy.Name()

	port := &memPort{shards: shards, route: independent, line: cfg.Geometry.LineBytes}
	for i, p := range mix.Benchmarks {
		core, err := cpu.NewCore(i, cfg.Core, p.Trace(i, geom, cfg.Seed), port)
		if err != nil {
			return Result{}, err
		}
		cores[i] = core
	}

	warmupDRAM := cfg.WarmupCPUCycles / ratio
	totalDRAM := warmupDRAM + cfg.MeasureCPUCycles/ratio

	// Telemetry setup: bind the probe's ring buffers to this run's shape
	// (banks concatenated across channels) and attach the per-event hooks
	// (read latencies from every controller, batch lifecycle from every
	// PAR-BS engine). Everything is preallocated here; the per-cycle loop
	// below allocates nothing.
	var tel *sampler
	checkEvery := int64(1024) // context/progress checkpoint period
	if probe := cfg.Probe; probe != nil {
		epochLen := probe.EpochDRAMCycles()
		checkEvery = epochLen
		probe.Bind(cfg.Cores, n*geom.Banks, shards[0].dev.BurstCycles(),
			(totalDRAM-warmupDRAM)/epochLen)
		for _, s := range shards {
			s.ctrl.SetProbe(probe)
			if eng, ok := s.policy.(interface{ SetBatchObserver(core.BatchObserver) }); ok {
				eng.SetBatchObserver(probe)
			}
		}
		tel = &sampler{
			probe:      probe,
			cores:      cores,
			shards:     shards,
			threads:    make([]telemetry.ThreadSample, cfg.Cores),
			bankCAS:    make([]int64, n*geom.Banks),
			nextSample: warmupDRAM + epochLen,
			epochLen:   epochLen,
		}
	}
	// Tracing setup: stamp the run's metadata and attach the lifecycle
	// hooks (arrivals/commands/completions from each controller, marking
	// and batch spans from each PAR-BS engine), each through a handle that
	// stamps the shard's channel onto the run's one event buffer.
	if tr := cfg.Tracer; tr != nil {
		meta := trace.Meta{
			Policy:         policyName,
			Workload:       mix.Name,
			Cores:          cfg.Cores,
			Banks:          geom.Banks,
			CPUPerDRAM:     ratio,
			WarmupDRAM:     warmupDRAM,
			TotalDRAM:      totalDRAM,
			ReadBufEntries: cfg.Ctrl.ReadBufEntries,
		}
		if eng, ok := shards[0].policy.(*core.Engine); ok {
			meta.MarkingCap = eng.Options().MarkingCap
		}
		if independent {
			meta.Channels = n
		}
		tr.Bind(meta)
		for ch, s := range shards {
			st := tr.ForChannel(ch)
			s.ctrl.SetTracer(st)
			if eng, ok := s.policy.(interface{ SetLifecycleObserver(core.LifecycleObserver) }); ok {
				eng.SetLifecycleObserver(st)
			}
		}
	}
	// Checkpoints (context polls, progress heartbeats) share the epoch
	// cadence; with no consumers the schedule stays past the horizon so the
	// loop pays only one int64 comparison per cycle.
	nextCheck := totalDRAM + 1
	if cfg.Context != nil || cfg.Progress != nil {
		nextCheck = checkEvery
	}

	// The run loop is a next-event clock: each iteration evaluates one DRAM
	// cycle (cores first over the CPU span they have not yet simulated, then
	// every shard's controller in channel order), and when the evaluated
	// cycle was provably inert — no controller issued and every core
	// reported a stall bound — the clock jumps straight to the earliest
	// cycle at which anything can happen. Jump targets are lower bounds that
	// never overshoot an event (DESIGN.md §13), and every externally-timed
	// edge (warmup reset, telemetry epoch, checkpoint, liveness deadline)
	// caps the jump so it is evaluated on exactly the cycle the ticked loop
	// would have, making the command stream, telemetry and traces
	// byte-identical in both modes (pinned by the differential equivalence
	// tests).
	//
	// Per-core tick gating: a core whose last Tick ended in a provable
	// non-port stall is left unticked — its stall span accrues later in one
	// closed-form catch-up Tick — while other cores and the controllers keep
	// running. The gate is re-evaluated every evaluated cycle through the
	// core's live BlockedUntil (which sees completions the controllers
	// queued in between), and port-stalled cores are exempt: a command issue
	// frees the buffer slot they wait on, an event their stall bound cannot
	// see. Gating requires CompletionOverheadCPU >= ratio so a completion
	// queued by this cycle's controller tick (at dc*ratio+overhead) can never
	// fall inside the current core span — otherwise a catch-up tick would
	// deliver it one evaluated cycle earlier than per-cycle ticking does.
	skipping := !cfg.ForceTicked
	gating := skipping && overhead >= ratio
	// issuedTotal is the sum of the shards' CommandsIssued counters, kept
	// running: commands issue only inside controller ticks, and the
	// counters reset only at the warmup boundary.
	issuedTotal := int64(0)
	lastIssued, lastIssuedAt := int64(0), int64(0)
	evaluated := int64(0)
	// coreDone[i] is the CPU cycle core i has simulated up to.
	coreDone := make([]int64, cfg.Cores)
	for dc := int64(0); dc < totalDRAM; {
		if dc == warmupDRAM && dc > 0 {
			// A jump may land here with the cores' CPU time still inside the
			// warmup window; tick the (provably stalled) remainder first so
			// the discarded span accrues before the reset, exactly as in the
			// ticked loop.
			for i, core := range cores {
				if gap := dc*ratio - coreDone[i]; gap > 0 {
					core.Tick(coreDone[i], int(gap))
					coreDone[i] = dc * ratio
				}
			}
			for _, core := range cores {
				core.ResetStats()
			}
			for _, s := range shards {
				s.flushIdle()
				s.ctrl.ResetStats()
			}
			issuedTotal = 0
			if tel != nil {
				tel.probe.Rebase()
			}
		}
		evaluated++
		port.now = dc
		tickEnd := (dc + 1) * ratio
		// The telemetry sampler reads core state after this cycle, so sample
		// cycles tick every core (as the per-cycle loop would) instead of
		// deferring.
		gate := gating && !(tel != nil && dc+1 == tel.nextSample)
		for i, core := range cores {
			if gate {
				if b := core.BlockedUntil(); b != 0 && tickEnd <= b && !core.BlockedOnPort() {
					continue // provably inert through tickEnd; defer the tick
				}
			}
			core.Tick(coreDone[i], int(tickEnd-coreDone[i]))
			coreDone[i] = tickEnd
		}
		cycleIssued := int64(0)
		for _, s := range shards {
			if skipping && s.inert(dc) {
				s.ctrlIdle++ // controller provably inert this cycle; tick elided
				continue
			}
			cycleIssued += s.tick(dc)
		}
		issuedTotal += cycleIssued
		// Liveness check: buffered work with no command progress for a long
		// stretch of simulated time indicates a scheduling deadlock (a policy
		// bug). The window counts elapsed DRAM cycles, not loop iterations,
		// and jumps are capped at the deadline below, so the guard fires on
		// the same cycle with skipping on or off.
		if issuedTotal != lastIssued {
			lastIssued, lastIssuedAt = issuedTotal, dc
		} else if p := pending(shards); p > 0 && dc-lastIssuedAt > livenessWindowDRAM {
			return Result{}, fmt.Errorf("sim: no DRAM progress for %d cycles with %d reads pending (policy %s)",
				dc-lastIssuedAt, p, policyName)
		}
		if tel != nil && dc+1 == tel.nextSample {
			tel.sample(dc + 1)
		}
		if dc+1 == nextCheck {
			nextCheck += checkEvery
			if ctx := cfg.Context; ctx != nil {
				if err := ctx.Err(); err != nil {
					return Result{}, fmt.Errorf("sim: run canceled at DRAM cycle %d of %d: %w",
						dc+1, totalDRAM, err)
				}
			}
			if cfg.Progress != nil {
				p := Progress{
					DRAMCycle:       dc + 1,
					TotalDRAMCycles: totalDRAM,
					CPUCycle:        (dc + 1) * ratio,
					Warmup:          dc+1 < warmupDRAM,
					CommandsIssued:  lastIssued,
					PendingReads:    pending(shards),
				}
				if independent {
					p.PendingPerChannel = make([]int, n)
					for ch, s := range shards {
						p.PendingPerChannel[ch] = s.ctrl.PendingReads()
					}
				}
				cfg.Progress(p)
			}
		}
		next := dc + 1
		if skipping && cycleIssued == 0 {
			// The cycle was idle on the controller side. If every core is
			// provably blocked too, nothing observable can happen until the
			// earliest of the cores' wake cycles and the controllers' next
			// events. A command issue this cycle would have freed a request-
			// or write-buffer slot (unblocking a fetch- or store-stalled
			// core), hence the cycleIssued guard.
			target := totalDRAM
			for _, core := range cores {
				b := core.BlockedUntil()
				if b == 0 {
					target = next
					break
				}
				if d := b / ratio; d < target {
					target = d
				}
			}
			if target > next {
				// Each shard's ctrlNext is the same NextEventAt bound the
				// ticked path would recompute here: it was produced by the
				// shard's last unproductive tick and stays valid (no enqueue,
				// no issue since — both force a re-tick).
				for _, s := range shards {
					if s.ctrlNext < target {
						target = s.ctrlNext
					}
				}
				if dc < warmupDRAM && warmupDRAM < target {
					target = warmupDRAM
				}
				if tel != nil && tel.nextSample-1 < target {
					target = tel.nextSample - 1
				}
				if nextCheck-1 < target {
					target = nextCheck - 1
				}
				if pending(shards) > 0 {
					if deadline := lastIssuedAt + livenessWindowDRAM + 1; deadline < target {
						target = deadline
					}
				}
			}
			if target > next {
				// The skipped span is provably idle on every shard; its BLP
				// accounting joins the shard's elided cycles.
				for _, s := range shards {
					s.ctrlIdle += target - next
				}
				next = target
			}
		}
		dc = next
	}
	// The final jump (or a still-armed per-core gate) may leave a core's CPU
	// time short of the horizon; it is provably stalled over the remainder
	// (jump targets and gates honored its wake bound), so this tick only
	// accrues stall cycles and delivers completions at the cycles per-cycle
	// ticking would have.
	for i, core := range cores {
		if tail := totalDRAM*ratio - coreDone[i]; tail > 0 {
			core.Tick(coreDone[i], int(tail))
		}
	}
	for _, s := range shards {
		s.flushIdle()
	}
	if tel != nil {
		tel.probe.RecordLoopStats(totalDRAM, evaluated, totalDRAM-evaluated)
	}

	res := Result{
		Policy:          policyName,
		DRAMCycles:      totalDRAM - warmupDRAM,
		EvaluatedCycles: evaluated,
		SkippedCycles:   totalDRAM - evaluated,
	}
	if independent {
		res.Policy += fmt.Sprintf(" x%d-independent", n)
	}
	for _, s := range shards {
		st := s.dev.Stats()
		res.DRAM.Activates += st.Activates
		res.DRAM.Precharges += st.Precharges
		res.DRAM.Reads += st.Reads
		res.DRAM.Writes += st.Writes
		res.DRAM.Refreshes += st.Refreshes
		res.DRAM.BusyCycles += st.BusyCycles / int64(n) // normalize to one bus
	}
	for i, core := range cores {
		res.Threads = append(res.Threads, metrics.ThreadOutcome{
			Benchmark: mix.Benchmarks[i].Name,
			CPU:       core.Stats(),
			Mem:       threadStats(shards, i),
		})
	}
	return res, nil
}
