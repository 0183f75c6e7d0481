package sim

import (
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
//
// Each channel is an execution shard. Cores run on the calling goroutine
// every cycle (enqueue order is semantic: request-buffer back-pressure
// depends on it); the per-channel controllers advance either inline, in
// channel order, or spread across a pool of worker goroutines with a
// barrier per evaluated cycle (cfg.Parallelism). Shards never share
// mutable state within a cycle — completions, command-log events,
// telemetry and trace events buffer in the owning shard and are merged on
// the calling goroutine in channel order after the barrier — so the
// command stream, telemetry report and trace log are byte-identical at
// every parallelism level (pinned by the parallel equivalence tests).
//
// The run composes with the next-event clock exactly as Run does: each
// shard elides provably inert controller ticks on its own bound, and a
// cycle where no shard issued and every core is provably blocked jumps the
// shared clock to the earliest wake across all channels, capped by the
// same warmup/telemetry/checkpoint/liveness edges.
func RunIndependent(cfg Config, mix workload.Mix, factory func() memctrl.Policy) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	n := cfg.Geometry.Channels
	if n < 1 {
		return Result{}, fmt.Errorf("sim: independent channels need Channels >= 1, got %d", n)
	}
	if len(mix.Benchmarks) != cfg.Cores {
		return Result{}, fmt.Errorf("sim: mix %q has %d benchmarks for %d cores",
			mix.Name, len(mix.Benchmarks), cfg.Cores)
	}

	chanGeom := cfg.Geometry
	chanGeom.Channels = 1
	skipping := !cfg.ForceTicked
	shards := make([]*chanShard, n)
	pols := make([]memctrl.Policy, n)
	var policyName string
	for ch := 0; ch < n; ch++ {
		dev, err := dram.NewDevice(cfg.Timing, chanGeom)
		if err != nil {
			return Result{}, err
		}
		ctrlCfg := cfg.Ctrl
		ctrlCfg.Threads = cfg.Cores
		// Stamp the channel and stride request IDs so they stay globally
		// unique and shard-independent (trace analysis keys on them).
		ctrlCfg.Channel = ch
		ctrlCfg.IDBase = int64(ch)
		ctrlCfg.IDStride = int64(n)
		pol := factory()
		if pol == nil {
			return Result{}, fmt.Errorf("sim: policy factory returned nil")
		}
		policyName = pol.Name()
		pols[ch] = pol
		ctrl, err := memctrl.NewController(dev, pol, ctrlCfg)
		if err != nil {
			return Result{}, err
		}
		s := &chanShard{id: ch, ctrl: ctrl, dev: dev, skipping: skipping}
		// Completions and command-log events are produced inside the shard's
		// controller tick — possibly on a worker goroutine — so they buffer
		// shard-locally and drain on the run goroutine after the barrier.
		ctrl.SetOnComplete(func(r *memctrl.Request, endDRAM int64) {
			s.comps = append(s.comps, shardCompletion{req: r, end: endDRAM})
		})
		if cfg.CommandLog != nil {
			ctrl.SetCommandLog(func(ev memctrl.CommandEvent) {
				s.cmds = append(s.cmds, ev)
			})
		}
		shards[ch] = s
	}

	port := &channelPort{shards: shards, line: cfg.Geometry.LineBytes, chans: n}
	cores := make([]*cpu.Core, cfg.Cores)
	for i, p := range mix.Benchmarks {
		trace := p.Trace(i, chanGeom, cfg.Seed)
		core, err := cpu.NewCore(i, cfg.Core, trace, port)
		if err != nil {
			return Result{}, err
		}
		cores[i] = core
	}

	ratio := cfg.CPUCyclesPerDRAM
	warmupDRAM := cfg.WarmupCPUCycles / ratio
	totalDRAM := warmupDRAM + cfg.MeasureCPUCycles/ratio

	// Telemetry: the shared probe cannot be fed from worker goroutines, so
	// every shard observes into its own commutative collector and the
	// sampler absorbs them in channel order at each epoch boundary.
	var tel *chanSampler
	checkEvery := int64(1024)
	if probe := cfg.Probe; probe != nil {
		epochLen := probe.EpochDRAMCycles()
		checkEvery = epochLen
		probe.Bind(cfg.Cores, n*chanGeom.Banks, shards[0].dev.BurstCycles(),
			(totalDRAM-warmupDRAM)/epochLen)
		for ch, s := range shards {
			s.col = telemetry.NewCollector(cfg.Cores)
			s.ctrl.SetProbe(s.col)
			if eng, ok := pols[ch].(interface{ SetBatchObserver(core.BatchObserver) }); ok {
				eng.SetBatchObserver(s.col)
			}
		}
		tel = &chanSampler{
			probe:      probe,
			cores:      cores,
			shards:     shards,
			threads:    make([]telemetry.ThreadSample, cfg.Cores),
			bankCAS:    make([]int64, n*chanGeom.Banks),
			chanBanks:  chanGeom.Banks,
			nextSample: warmupDRAM + epochLen,
			epochLen:   epochLen,
		}
	}
	// Tracing: one shard tracer per channel (events stamped with the channel
	// index), merged back into the parent tracer after the run.
	var shardTracers []*trace.Tracer
	if tr := cfg.Tracer; tr != nil {
		markingCap := 0
		if eng, ok := pols[0].(*core.Engine); ok {
			markingCap = eng.Options().MarkingCap
		}
		tr.Bind(trace.Meta{
			Policy:         policyName,
			Workload:       mix.Name,
			Cores:          cfg.Cores,
			Banks:          chanGeom.Banks,
			Channels:       n,
			CPUPerDRAM:     ratio,
			WarmupDRAM:     warmupDRAM,
			TotalDRAM:      totalDRAM,
			MarkingCap:     markingCap,
			ReadBufEntries: cfg.Ctrl.ReadBufEntries,
		})
		shardTracers = make([]*trace.Tracer, n)
		for ch, s := range shards {
			st := tr.NewShard(ch)
			shardTracers[ch] = st
			s.ctrl.SetTracer(st)
			if eng, ok := pols[ch].(interface{ SetLifecycleObserver(core.LifecycleObserver) }); ok {
				eng.SetLifecycleObserver(st)
			}
		}
	}
	nextCheck := totalDRAM + 1
	if cfg.Context != nil || cfg.Progress != nil {
		nextCheck = checkEvery
	}

	// The shard executor: inline channel-order stepping, or the worker pool
	// with a per-cycle barrier. Both run the same chanShard.step, so the
	// choice cannot change any result.
	step := func(dc int64) {
		for _, s := range shards {
			s.step(dc)
		}
	}
	if w := WorkerCount(cfg.Parallelism, n); w > 1 {
		pool := newShardPool(shards, w)
		defer pool.stop()
		step = pool.cycle
	}
	// drain delivers the cycle's buffered cross-shard effects in channel
	// order on the run goroutine: completions to the cores (the same order
	// inline channel-order controller ticks produce) and command-log events
	// to the caller's sink.
	overhead := cfg.CompletionOverheadCPU
	drain := func() {
		for _, s := range shards {
			for _, c := range s.comps {
				cores[c.req.Thread].Complete(c.req, c.end*ratio+overhead)
			}
			s.comps = s.comps[:0]
			if cfg.CommandLog != nil {
				for _, ev := range s.cmds {
					cfg.CommandLog(ev)
				}
				s.cmds = s.cmds[:0]
			}
		}
	}

	issued := func() int64 {
		var t int64
		for _, s := range shards {
			t += s.ctrl.CommandsIssued()
		}
		return t
	}
	pending := func() int {
		var t int
		for _, s := range shards {
			t += s.ctrl.PendingReads()
		}
		return t
	}

	// The run loop mirrors Run's next-event clock cycle for cycle — see the
	// commentary there and DESIGN.md §13/§14 — with the controller phase
	// generalized to the shard executor.
	gating := skipping && cfg.CompletionOverheadCPU >= ratio
	lastIssued, lastIssuedAt := int64(0), int64(0)
	evaluated := int64(0)
	coreDone := make([]int64, cfg.Cores)
	for dc := int64(0); dc < totalDRAM; {
		if dc == warmupDRAM && dc > 0 {
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
				if s.col != nil {
					s.col.Reset()
				}
			}
			if tel != nil {
				tel.probe.Rebase()
			}
		}
		evaluated++
		port.now = dc
		tickEnd := (dc + 1) * ratio
		gate := gating && !(tel != nil && dc+1 == tel.nextSample)
		for i, core := range cores {
			if gate {
				if b := core.BlockedUntil(); b != 0 && tickEnd <= b && !core.BlockedOnPort() {
					continue
				}
			}
			core.Tick(coreDone[i], int(tickEnd-coreDone[i]))
			coreDone[i] = tickEnd
		}
		issuedBefore := issued()
		step(dc)
		drain()
		issuedNow := issued()
		if issuedNow != lastIssued {
			lastIssued, lastIssuedAt = issuedNow, dc
		} else if pending() > 0 && dc-lastIssuedAt > livenessWindowDRAM {
			return Result{}, fmt.Errorf("sim: no DRAM progress for %d cycles with %d reads pending (policy %s)",
				dc-lastIssuedAt, pending(), policyName)
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
				perChan := make([]int, n)
				for ch, s := range shards {
					perChan[ch] = s.ctrl.PendingReads()
				}
				total := 0
				for _, p := range perChan {
					total += p
				}
				cfg.Progress(Progress{
					DRAMCycle:         dc + 1,
					TotalDRAMCycles:   totalDRAM,
					CPUCycle:          (dc + 1) * ratio,
					Warmup:            dc+1 < warmupDRAM,
					CommandsIssued:    lastIssued,
					PendingReads:      total,
					PendingPerChannel: perChan,
				})
			}
		}
		next := dc + 1
		if skipping && issuedNow == issuedBefore {
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
				if pending() > 0 {
					if deadline := lastIssuedAt + livenessWindowDRAM + 1; deadline < target {
						target = deadline
					}
				}
			}
			if target > next {
				// The skipped span is provably idle on every shard; the BLP
				// accounting accrues shard-locally and flushes in closed form
				// before the next real tick or stats read.
				for _, s := range shards {
					s.ctrlIdle += target - dc - 1
				}
				next = target
			}
		}
		dc = next
	}
	for i, core := range cores {
		if tail := totalDRAM*ratio - coreDone[i]; tail > 0 {
			core.Tick(coreDone[i], int(tail))
		}
	}
	for _, s := range shards {
		s.flushIdle()
	}
	if tel != nil {
		for _, s := range shards {
			tel.probe.Absorb(s.col)
		}
		tel.probe.RecordLoopStats(totalDRAM, evaluated, totalDRAM-evaluated)
	}
	if cfg.Tracer != nil {
		cfg.Tracer.MergeShards(shardTracers)
	}

	res := Result{
		Policy:          policyName + fmt.Sprintf(" x%d-independent", n),
		DRAMCycles:      totalDRAM - warmupDRAM,
		EvaluatedCycles: evaluated,
		SkippedCycles:   totalDRAM - evaluated,
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
		merged := shards[0].ctrl.ThreadStats(i)
		for _, s := range shards[1:] {
			merged = merged.Merge(s.ctrl.ThreadStats(i))
		}
		res.Threads = append(res.Threads, metrics.ThreadOutcome{
			Benchmark: mix.Benchmarks[i].Name,
			CPU:       core.Stats(),
			Mem:       merged,
		})
	}
	return res, nil
}

// RunAloneIndependent simulates one benchmark alone on the same independent-
// channel memory system — the slowdown baseline matching RunIndependent the
// way RunAlone matches Run. FR-FCFS per channel, as in the paper's alone
// runs; probes, tracers and command logs are stripped, Context, Progress
// and Parallelism carry over.
func RunAloneIndependent(cfg Config, p workload.Profile) (metrics.ThreadOutcome, error) {
	alone := cfg
	alone.Cores = 1
	alone.Ctrl.Threads = 1
	alone.Probe = nil
	alone.Tracer = nil
	alone.CommandLog = nil
	mix := workload.Mix{Name: "alone-" + p.Name, Benchmarks: []workload.Profile{p}}
	res, err := RunIndependent(alone, mix, func() memctrl.Policy { return frfcfsPolicy() })
	if err != nil {
		return metrics.ThreadOutcome{}, err
	}
	return res.Threads[0], nil
}

// chanShard is one independent channel's execution state: its device and
// controller plus the shard-local next-event bookkeeping and the buffers
// that carry cross-shard effects back to the run goroutine. Within an
// evaluated cycle a shard is touched by exactly one goroutine.
type chanShard struct {
	id   int
	ctrl *memctrl.Controller
	dev  *dram.Device

	// Controller-tick elision state, per shard (see Run's commentary):
	// ctrlNext is the NextEventAt bound from the last unproductive tick,
	// ctrlEnq the enqueue count that validates it, ctrlIdle the elided
	// cycles awaiting closed-form BLP accounting.
	ctrlNext int64
	ctrlIdle int64
	ctrlEnq  int64
	skipping bool

	// comps and cmds buffer the cycle's completions and command-log events
	// for post-barrier channel-order delivery.
	comps []shardCompletion
	cmds  []memctrl.CommandEvent

	// col collects the shard's telemetry observations (nil when unprobed).
	col *telemetry.Collector
}

// shardCompletion is one retired request awaiting delivery to its core.
type shardCompletion struct {
	req *memctrl.Request
	end int64 // DRAM cycle of the data return
}

// step advances the shard's controller by one DRAM cycle, eliding the tick
// when the shard's next-event bound proves it inert — the per-shard half of
// the next-event clock. Safe to call from a worker goroutine: it touches
// only shard-owned state.
func (s *chanShard) step(dc int64) {
	if e := s.ctrl.Enqueues(); s.skipping && dc < s.ctrlNext && e == s.ctrlEnq {
		s.ctrlIdle++
		return
	}
	s.ctrlEnq = s.ctrl.Enqueues()
	s.flushIdle()
	before := s.ctrl.CommandsIssued()
	s.ctrl.Tick(dc)
	if s.ctrl.CommandsIssued() == before {
		s.ctrlNext = s.ctrl.NextEventAt(dc)
	} else {
		s.ctrlNext = dc + 1
	}
}

// flushIdle applies the accumulated elided-cycle BLP accounting.
func (s *chanShard) flushIdle() {
	if s.ctrlIdle > 0 {
		s.ctrl.AccountIdleSpan(s.ctrlIdle)
		s.ctrlIdle = 0
	}
}

// channelPort routes core memory traffic across the independent channel
// controllers by dram.ChannelRoute, carrying the current DRAM cycle.
type channelPort struct {
	shards []*chanShard
	line   int64
	chans  int
	now    int64
}

func (p *channelPort) IssueRead(thread int, addr int64, tag int) bool {
	ch, inner := dram.ChannelRoute(addr, p.line, p.chans)
	r, ok := p.shards[ch].ctrl.EnqueueRead(thread, inner, p.now)
	if ok {
		r.Tag = tag
	}
	return ok
}

func (p *channelPort) IssueWrite(thread int, addr int64) bool {
	ch, inner := dram.ChannelRoute(addr, p.line, p.chans)
	return p.shards[ch].ctrl.EnqueueWrite(thread, inner, p.now)
}

// chanSampler is the sharded counterpart of sampler: at each epoch boundary
// it absorbs every shard's collector into the probe (channel order), merges
// per-thread controller stats across channels, and concatenates per-channel
// bank CAS counters into the probe's flat bank axis.
type chanSampler struct {
	probe      *telemetry.Probe
	cores      []*cpu.Core
	shards     []*chanShard
	threads    []telemetry.ThreadSample
	bankCAS    []int64
	chanBanks  int
	nextSample int64
	epochLen   int64
}

// sample snapshots the cumulative simulation counters into the probe at the
// epoch ending at DRAM cycle end.
func (s *chanSampler) sample(end int64) {
	for _, sh := range s.shards {
		sh.flushIdle()
		s.probe.Absorb(sh.col)
	}
	for i, core := range s.cores {
		st := core.Stats()
		ms := s.shards[0].ctrl.ThreadStats(i)
		queue := s.shards[0].ctrl.ReadsPerThread(i)
		for _, sh := range s.shards[1:] {
			ms = ms.Merge(sh.ctrl.ThreadStats(i))
			queue += sh.ctrl.ReadsPerThread(i)
		}
		blpSum, blpCycles := ms.BLPAccum()
		s.threads[i] = telemetry.ThreadSample{
			Instructions:     st.Instructions,
			CPUCycles:        st.Cycles,
			MemStallCycles:   st.MemStallCycles,
			QueueLen:         queue,
			WindowOccupancy:  core.WindowOccupancy(),
			ReadsCompleted:   ms.ReadsCompleted,
			TotalReadLatency: ms.TotalReadLatency,
			BLPSum:           blpSum,
			BLPCycles:        blpCycles,
		}
	}
	var ds telemetry.DeviceSample
	for ch, sh := range s.shards {
		sh.dev.CopyBankCAS(s.bankCAS[ch*s.chanBanks : (ch+1)*s.chanBanks])
		dst := sh.dev.Stats()
		ds.Reads += dst.Reads
		ds.Writes += dst.Writes
		ds.Activates += dst.Activates
		ds.BusyCycles += dst.BusyCycles / int64(len(s.shards)) // one-bus normalization, as in Result
	}
	s.probe.Sample(end, s.threads, s.bankCAS, ds)
	s.nextSample = end + s.epochLen
}
