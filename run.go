package parbs

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CommandEvent describes one issued DRAM command, delivered to the
// WithCommandLog hook. Commands from the shared run only; alone baseline
// runs are never logged.
type CommandEvent struct {
	// Cycle is the DRAM cycle the command issued.
	Cycle int64
	// Command is the DRAM command mnemonic (ACT, PRE, RD, WR, REF).
	Command string
	// Bank and Row locate the command's target.
	Bank int
	Row  int64
	// Thread is the issuing thread, or -1 for controller-initiated
	// commands (refresh sequencing).
	Thread int
	// RequestID is the serviced request's arrival sequence number, or -1.
	RequestID int64
	// Channel is the issuing controller's channel on an Independent-channel
	// system; always 0 under Lockstep (one ganged command stream).
	Channel int
}

// Progress is a heartbeat snapshot delivered to the WithProgress hook at
// every epoch checkpoint of every simulation phase.
type Progress struct {
	// Phase is "warmup" or "measure" during the shared run and
	// "alone:<benchmark>" during each baseline run. Phases may run
	// concurrently (see WithParallelism), so their heartbeats may
	// interleave.
	Phase string
	// CPUCycles and TotalCPUCycles locate the current phase's run;
	// CPUCycles/TotalCPUCycles is the fraction complete.
	CPUCycles      int64
	TotalCPUCycles int64
	// CommandsIssued is the run's cumulative DRAM command count.
	CommandsIssued int64
	// PendingReads is the request-buffer occupancy at the checkpoint,
	// summed over channels on an Independent-channel system.
	PendingReads int
	// PendingPerChannel is the per-channel request-buffer occupancy,
	// indexed by channel, on an Independent-channel system; nil under
	// Lockstep.
	PendingPerChannel []int
}

// AloneCache memoizes alone-run baselines across RunContext calls. A run's
// slowdown metrics need one single-thread baseline per distinct benchmark,
// and those baselines depend only on the benchmark and the system shape —
// not on the scheduler or co-runners — so services and sweeps that simulate
// many workloads on the same system can share one cache and skip the
// (dominant) baseline cost on every run after the first. Safe for
// concurrent use by multiple simultaneous runs: concurrent misses on one
// baseline compute it once (the first caller runs it, the others wait for
// its result), and a failed computation is not cached.
type AloneCache struct {
	mu sync.Mutex
	m  map[aloneCacheKey]metrics.ThreadOutcome
	// flights holds the baselines being computed; each channel closes when
	// its computation ends, successful or not.
	flights map[aloneCacheKey]chan struct{}
}

// aloneCacheKey captures everything an alone run's outcome depends on: the
// benchmark and every configuration field that survives sim.RunAlone's
// single-core normalization. Threads is normalized to 1 so systems that
// differ only in core count (but share a memory-system shape) hit the same
// entries.
type aloneCacheKey struct {
	benchmark string
	// independent distinguishes Independent-channel baselines (one shard
	// and one FR-FCFS per channel) from Lockstep ones.
	independent bool
	timing      dram.Timing
	geometry    dram.Geometry
	ctrl        memctrl.Config
	core        cpu.Config
	ratio       int64
	warmup      int64
	measure     int64
	overhead    int64
	seed        int64
}

// NewAloneCache returns an empty baseline cache.
func NewAloneCache() *AloneCache {
	return &AloneCache{
		m:       make(map[aloneCacheKey]metrics.ThreadOutcome),
		flights: make(map[aloneCacheKey]chan struct{}),
	}
}

// Len reports the number of cached baselines.
func (c *AloneCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func aloneKeyFor(cfg sim.Config, benchmark string, independent bool) aloneCacheKey {
	ctrl := cfg.Ctrl
	ctrl.Threads = 1
	return aloneCacheKey{
		benchmark:   benchmark,
		independent: independent,
		timing:      cfg.Timing,
		geometry:    cfg.Geometry,
		ctrl:        ctrl,
		core:        cfg.Core,
		ratio:       cfg.CPUCyclesPerDRAM,
		warmup:      cfg.WarmupCPUCycles,
		measure:     cfg.MeasureCPUCycles,
		overhead:    cfg.CompletionOverheadCPU,
		seed:        cfg.Seed,
	}
}

func (c *AloneCache) get(cfg sim.Config, benchmark string, independent bool) (metrics.ThreadOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.m[aloneKeyFor(cfg, benchmark, independent)]
	return out, ok
}

// baseline returns the cached baseline for key, or computes it with compute
// and caches it. Concurrent misses on one key single-flight: the first
// caller computes while the others wait on its flight, then re-read the
// map — a hit if it succeeded, a retry (the first waiter computing in turn)
// if it failed. ctx bounds the wait.
func (c *AloneCache) baseline(ctx context.Context, key aloneCacheKey, compute func() (metrics.ThreadOutcome, error)) (metrics.ThreadOutcome, error) {
	for {
		c.mu.Lock()
		if out, ok := c.m[key]; ok {
			c.mu.Unlock()
			return out, nil
		}
		flight, busy := c.flights[key]
		if !busy {
			flight = make(chan struct{})
			c.flights[key] = flight
			c.mu.Unlock()
			return c.fill(key, flight, compute)
		}
		c.mu.Unlock()
		select {
		case <-flight:
		case <-ctx.Done():
			return metrics.ThreadOutcome{}, fmt.Errorf("parbs: waiting for the %s alone baseline: %w", key.benchmark, ctx.Err())
		}
	}
}

// fill runs compute for the flight it owns, caches a successful result and
// ends the flight — also when compute panics, so waiters never hang.
func (c *AloneCache) fill(key aloneCacheKey, flight chan struct{}, compute func() (metrics.ThreadOutcome, error)) (metrics.ThreadOutcome, error) {
	var out metrics.ThreadOutcome
	ok := false
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if ok {
			c.m[key] = out
		}
		c.mu.Unlock()
		close(flight)
	}()
	out, err := compute()
	ok = err == nil
	return out, err
}

// WithAloneCache shares alone-run baselines across runs through c. Runs
// that find their benchmarks' baselines in the cache skip the alone
// simulations entirely; misses are computed once and inserted.
func WithAloneCache(c *AloneCache) RunOption {
	return func(rc *runConfig) { rc.aloneCache = c }
}

// runConfig collects the RunOption settings.
type runConfig struct {
	tel         *Telemetry
	tracer      *Tracer
	cmdLog      func(CommandEvent)
	progress    func(Progress)
	aloneCache  *AloneCache
	parallelism int
	// runAlone computes one alone baseline; nil selects sim.RunAlone or
	// sim.RunAloneIndependent by channel mode. Tests substitute failures.
	runAlone func(sim.Config, workload.Profile) (metrics.ThreadOutcome, error)
}

// RunOption customizes a RunContext call.
type RunOption func(*runConfig)

// WithTelemetry attaches a telemetry collector to the run. The collector
// samples time series on its epoch during the measured window and renders
// them as a versioned JSON report after the run; see Telemetry. Each
// collector serves one run.
func WithTelemetry(t *Telemetry) RunOption {
	return func(rc *runConfig) { rc.tel = t }
}

// WithCommandLog streams every DRAM command of the shared run to fn
// (timelines, debugging). The hook runs on the simulation's hot path;
// keep it cheap.
func WithCommandLog(fn func(CommandEvent)) RunOption {
	return func(rc *runConfig) { rc.cmdLog = fn }
}

// WithProgress delivers heartbeat snapshots to fn at every epoch checkpoint,
// across the shared run and each alone baseline run. Calls to fn are
// serialized — it is never entered concurrently — but when the run's phases
// execute side by side (WithParallelism) their heartbeats interleave: an
// "alone:<benchmark>" snapshot may arrive between two "measure" ones. fn
// must not block.
func WithProgress(fn func(Progress)) RunOption {
	return func(rc *runConfig) { rc.progress = fn }
}

// WithParallelism bounds how many of a run's phases execute at once: 0
// (the default) uses GOMAXPROCS, and 1 runs everything inline on the
// calling goroutine — the shared run, then each alone baseline in order of
// first appearance. A run's phases (the shared run and every alone
// baseline the AloneCache does not already hold) are independent
// simulations, each on one goroutine, and up to n of them execute at once,
// the shared run first. The setting changes wall-clock speed only — the
// report, telemetry and traces are byte-identical at every level (pinned
// by the phase equivalence tests). Negative values are reported as an
// error by RunContext.
func WithParallelism(n int) RunOption {
	return func(rc *runConfig) { rc.parallelism = n }
}

// Run simulates the workload on the system under the scheduler, including
// the per-benchmark alone runs needed for slowdown metrics. It is
// RunContext with a background context and no options.
func Run(sys System, w Workload, s Scheduler) (Report, error) {
	return RunContext(context.Background(), sys, w, s)
}

// RunContext is Run with cooperative cancellation and optional observers.
// The shared run and the alone baselines it needs are independent phases,
// run side by side up to WithParallelism's bound. ctx is polled at every
// epoch checkpoint of every phase (roughly every 10k CPU cycles);
// cancellation aborts the run mid-flight with an error wrapping ctx.Err().
// A failing phase cancels the others, and its own error is returned.
// The scheduler must be freshly constructed: instances are single-use and
// reuse is reported as an error.
func RunContext(ctx context.Context, sys System, w Workload, s Scheduler, opts ...RunOption) (Report, error) {
	var rc runConfig
	for _, opt := range opts {
		opt(&rc)
	}
	cfg, err := sys.toSim()
	if err != nil {
		return Report{}, err
	}
	if rc.parallelism < 0 {
		return Report{}, fmt.Errorf("parbs: WithParallelism needs a non-negative worker count, got %d", rc.parallelism)
	}
	independent := sys.ChannelMode == Independent
	if rc.runAlone == nil {
		rc.runAlone = sim.RunAlone
		if independent {
			rc.runAlone = sim.RunAloneIndependent
		}
	}
	if len(w.mix.Benchmarks) != cfg.Cores {
		return Report{}, fmt.Errorf("parbs: workload %q has %d benchmarks for %d cores",
			w.mix.Name, len(w.mix.Benchmarks), cfg.Cores)
	}
	if rc.tel != nil {
		probe, err := rc.tel.bind(cfg.CPUCyclesPerDRAM)
		if err != nil {
			return Report{}, err
		}
		cfg.Probe = probe
	}
	if rc.tracer != nil {
		tr, err := rc.tracer.bind()
		if err != nil {
			return Report{}, err
		}
		cfg.Tracer = tr
	}
	if rc.cmdLog != nil {
		fn := rc.cmdLog
		cfg.CommandLog = func(ev memctrl.CommandEvent) {
			fn(CommandEvent{
				Cycle:     ev.Now,
				Command:   ev.Cmd.String(),
				Bank:      ev.Bank,
				Row:       ev.Row,
				Thread:    ev.Thread,
				RequestID: ev.ReqID,
				Channel:   ev.Channel,
			})
		}
	}
	// progress adapts sim heartbeats to one phase's label; phase "" is the
	// shared run, labeled warmup or measure. The mutex serializes the user's
	// callback across concurrently running phases.
	var progressMu sync.Mutex
	progress := func(phase string) func(sim.Progress) {
		if rc.progress == nil {
			return nil
		}
		return func(p sim.Progress) {
			ph := phase
			if ph == "" {
				ph = "measure"
				if p.Warmup {
					ph = "warmup"
				}
			}
			progressMu.Lock()
			defer progressMu.Unlock()
			rc.progress(Progress{
				Phase:             ph,
				CPUCycles:         p.CPUCycle,
				TotalCPUCycles:    p.TotalDRAMCycles * cfg.CPUCyclesPerDRAM,
				CommandsIssued:    p.CommandsIssued,
				PendingReads:      p.PendingReads,
				PendingPerChannel: p.PendingPerChannel,
			})
		}
	}
	if err := s.acquire(); err != nil {
		return Report{}, err
	}
	// Alone baselines: one per distinct benchmark, in order of first
	// appearance, minus those the cache already holds.
	alone := map[string]metrics.ThreadOutcome{}
	seen := map[string]bool{}
	var todo []workload.Profile
	for _, p := range w.mix.Benchmarks {
		if seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		if rc.aloneCache != nil {
			if base, ok := rc.aloneCache.get(cfg, p.Name, independent); ok {
				alone[p.Name] = base
				continue
			}
		}
		todo = append(todo, p)
	}
	// The shared run (task 0, the longest) and the missing baselines are
	// independent tasks on one pool.
	tasks := 1 + len(todo)
	var res sim.Result
	bases := make([]metrics.ThreadOutcome, len(todo))
	err = sim.ParallelFor(ctx, rc.parallelism, tasks, func(ctx context.Context, i int) error {
		c := cfg
		c.Context = ctx
		if i == 0 {
			c.Progress = progress("")
			var err error
			if independent {
				res, err = sim.RunIndependent(c, w.mix, s.factory)
			} else {
				res, err = sim.Run(c, w.mix, s.policy)
			}
			if err == nil && rc.tracer != nil {
				rc.tracer.finish()
			}
			return err
		}
		// Probe, tracer and command log are shared-run-only (RunAlone
		// strips them); context and progress carry through.
		p := todo[i-1]
		c.Progress = progress("alone:" + p.Name)
		run := func() (metrics.ThreadOutcome, error) { return rc.runAlone(c, p) }
		var err error
		if rc.aloneCache != nil {
			bases[i-1], err = rc.aloneCache.baseline(ctx, aloneKeyFor(cfg, p.Name, independent), run)
		} else {
			bases[i-1], err = run()
		}
		return err
	})
	if err != nil {
		return Report{}, err
	}
	for i, p := range todo {
		alone[p.Name] = bases[i]
	}
	var cs []metrics.Comparison
	aloneMCPI := make([]float64, len(res.Threads))
	rep := Report{Scheduler: res.Policy, BusUtilization: res.BusUtilization()}
	for i, th := range res.Threads {
		base := alone[th.Benchmark]
		aloneMCPI[i] = base.CPU.MCPI()
		c := metrics.Comparison{Alone: base, Shared: th}
		cs = append(cs, c)
		rep.Threads = append(rep.Threads, ThreadReport{
			Benchmark:   th.Benchmark,
			MemSlowdown: c.MemSlowdown(),
			IPC:         th.CPU.IPC(),
			BLP:         th.Mem.BLP(),
			RowHitRate:  th.Mem.RowHitRate(),
			ASTPerReq:   th.CPU.ASTPerReq(),
		})
	}
	rep.Unfairness = metrics.Unfairness(cs)
	rep.WeightedSpeedup = metrics.WeightedSpeedup(cs)
	rep.HmeanSpeedup = metrics.HmeanSpeedup(cs)
	rep.WorstCaseLatency = metrics.WorstCaseLatency(cs, cfg.CPUCyclesPerDRAM)
	if rc.tel != nil {
		rc.tel.finish(res.Policy, w.mix.Name, workload.Names(w.mix.Benchmarks), aloneMCPI)
	}
	return rep, nil
}
