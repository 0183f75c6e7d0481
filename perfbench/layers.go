package main

import (
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The per-layer harnesses below call each layer's exported functions
// directly, from outside, on inputs recorded from (or generated exactly
// as in) the traced run.

// simConfig lowers a case onto the engine configuration parbs.System
// produces for it.
func simConfig(c SimCase) sim.Config {
	cfg := sim.DefaultConfig(c.System.Cores)
	cfg.Geometry.Channels = c.System.Channels
	cfg.WarmupCPUCycles = c.System.WarmupCycles
	cfg.MeasureCPUCycles = c.System.MeasureCycles
	if c.System.Seed != 0 {
		cfg.Seed = c.System.Seed
	}
	return cfg
}

// countingSource wraps a profile's generator and counts the items the
// engine pulls from it.
type countingSource struct {
	src cpu.TraceSource
	n   int64
}

func (s *countingSource) Next() cpu.Item {
	s.n++
	return s.src.Next()
}

// threadStream is one thread's generator as the engine built it.
type threadStream struct {
	Profile workload.Profile
	Thread  int
	Geom    dram.Geometry
	Seed    int64
	Items   int64
}

func (t threadStream) source() cpu.TraceSource { return t.Profile.Trace(t.Thread, t.Geom, t.Seed) }

// countItems runs the case's shared run with every profile's generator
// wrapped through workload.Profile.Source and returns, per thread, the
// generator arguments and how many items the run consumed.
func countItems(c SimCase) ([]threadStream, error) {
	cfg := simConfig(c)
	streams := make([]threadStream, len(c.Benchmark))
	counters := make([]*countingSource, len(c.Benchmark))
	mix := workload.Mix{Name: c.Name}
	for i, name := range c.Benchmark {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		i, plain := i, p
		wrapped := p
		wrapped.Source = func(thread int, g dram.Geometry, seed int64) cpu.TraceSource {
			streams[i] = threadStream{Profile: plain, Thread: thread, Geom: g, Seed: seed}
			counters[i] = &countingSource{src: plain.Trace(thread, g, seed)}
			return counters[i]
		}
		mix.Benchmarks = append(mix.Benchmarks, wrapped)
	}
	var err error
	if c.System.ChannelMode == "independent" {
		_, err = sim.RunIndependent(cfg, mix, func() memctrl.Policy {
			p, _ := sched.ByName(c.Scheduler)
			return p
		})
	} else {
		var pol memctrl.Policy
		if pol, err = sched.ByName(c.Scheduler); err == nil {
			_, err = sim.Run(cfg, mix, pol)
		}
	}
	if err != nil {
		return nil, err
	}
	for i := range streams {
		if counters[i] == nil {
			return nil, fmt.Errorf("thread %d generator was never built", i)
		}
		streams[i].Items = counters[i].n
	}
	return streams, nil
}

// timeGenerators pulls each thread's item count from a fresh generator
// and returns the wall time spent in Next.
func timeGenerators(streams []threadStream) (time.Duration, int64) {
	var total int64
	var sink int64
	t0 := time.Now()
	for _, s := range streams {
		src := s.source()
		for k := int64(0); k < s.Items; k++ {
			sink += src.Next().NonMem
		}
		total += s.Items
	}
	d := time.Since(t0)
	_ = sink
	return d, total
}

// nullPort accepts every request and remembers the issued read tags so
// the harness can complete them after a fixed latency.
type nullPort struct {
	now    int64
	issued []completionDue
}

type completionDue struct {
	tag int
	at  int64
}

// coreLatency is the fixed read latency of the null memory, in CPU
// cycles: a row-hit DRAM access plus the completion overhead.
const coreLatency = 250

func (p *nullPort) IssueRead(thread int, addr int64, tag int) bool {
	p.issued = append(p.issued, completionDue{tag: tag, at: p.now + coreLatency})
	return true
}

func (p *nullPort) IssueWrite(thread int, addr int64) bool { return true }

// tickCores runs cpu.Core.Tick over every thread's own trace for the
// case's CPU cycle budget against a null memory, one DRAM cycle's worth of
// CPU cycles per call as the engine does. It returns the wall time and
// the CPU cycles simulated.
func tickCores(streams []threadStream, cpuCycles int64) (time.Duration, int64, error) {
	var total time.Duration
	var cycles int64
	req := &memctrl.Request{}
	for _, s := range streams {
		port := &nullPort{}
		core, err := cpu.NewCore(s.Thread, cpu.DefaultConfig(), s.source(), port)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for now := int64(0); now < cpuCycles; now += cpuPerDRAM {
			port.now = now
			core.Tick(now, cpuPerDRAM)
			for _, c := range port.issued {
				req.Tag = c.tag
				core.Complete(req, c.at)
			}
			port.issued = port.issued[:0]
		}
		total += time.Since(t0)
		cycles += core.Stats().Cycles
	}
	return total, cycles, nil
}

// ReplayStats is the outcome of one controller replay.
type ReplayStats struct {
	Wall     time.Duration
	Ticks    int64
	Commands int64
	// RowHits is the reads served without an activate, over reads
	// completed (the Report's RowHitRate, summed over threads).
	RowHits Ratio
	Retries int64
	// Recorded is how many commands the traced run issued over the same
	// cycles, for comparison with Commands.
	Recorded int64
}

// replayController feeds the traced run's recorded arrivals, cycle by
// cycle, through EnqueueRead/EnqueueWrite and Tick into a fresh controller
// per channel with the run's policy, over the recorded span.
func replayController(c SimCase, log *trace.Log, cmds []cmdEvent) (ReplayStats, error) {
	cfg := simConfig(c)
	geom := cfg.Geometry
	channels := 1
	if c.System.ChannelMode == "independent" {
		channels = geom.Channels
		geom.Channels = 1
	}
	arrivals := make([][]trace.Event, channels)
	var end int64
	for _, ev := range log.Events {
		if ev.Cycle > end {
			end = ev.Cycle
		}
		if ev.Kind == trace.KindArrive {
			if int(ev.Channel) >= channels {
				return ReplayStats{}, fmt.Errorf("arrival on channel %d of %d", ev.Channel, channels)
			}
			arrivals[ev.Channel] = append(arrivals[ev.Channel], ev)
		}
	}
	var st ReplayStats
	for _, ev := range cmds {
		if ev.Cycle <= end {
			st.Recorded++
		}
	}
	var hits, reads int64
	for ch := 0; ch < channels; ch++ {
		dev, err := dram.NewDevice(cfg.Timing, geom)
		if err != nil {
			return st, err
		}
		pol, err := sched.ByName(c.Scheduler)
		if err != nil {
			return st, err
		}
		ctrlCfg := cfg.Ctrl
		ctrlCfg.Threads = c.System.Cores
		ctrl, err := memctrl.NewController(dev, pol, ctrlCfg)
		if err != nil {
			return st, err
		}
		queue := arrivals[ch]
		t0 := time.Now()
		for now := int64(0); now <= end; now++ {
			for len(queue) > 0 && queue[0].Cycle <= now {
				ev := queue[0]
				addr := geom.Unmap(dram.Location{Bank: int(ev.Bank), Row: ev.Row})
				var ok bool
				if ev.Write {
					ok = ctrl.EnqueueWrite(int(ev.Thread), addr, now)
				} else {
					_, ok = ctrl.EnqueueRead(int(ev.Thread), addr, now)
				}
				if !ok {
					st.Retries++
					break
				}
				queue = queue[1:]
			}
			ctrl.Tick(now)
		}
		st.Wall += time.Since(t0)
		st.Ticks += end + 1
		st.Commands += ctrl.CommandsIssued()
		for t := 0; t < c.System.Cores; t++ {
			ts := ctrl.ThreadStats(t)
			hits += ts.RowHitReads
			reads += ts.ReadsCompleted
		}
	}
	st.RowHits = Ratio{Num: float64(hits), Den: float64(reads)}
	return st, nil
}

// cmdEvent is one command of the traced run's command log.
type cmdEvent struct {
	Cycle   int64
	Cmd     dram.Command
	Bank    int
	Row     int64
	Channel int
}

// parseCommand maps a logged mnemonic back to its dram.Command.
func parseCommand(s string) (dram.Command, error) {
	for c := dram.CmdNone; c <= dram.CmdRefresh; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return dram.CmdNone, fmt.Errorf("unknown DRAM command %q", s)
}

// replayDevice issues the recorded command log, in order, into a fresh
// device per channel. Every command must be legal (CanIssue) at its
// recorded cycle; the first illegal one is returned as an error.
func replayDevice(c SimCase, cmds []cmdEvent) (time.Duration, error) {
	cfg := simConfig(c)
	geom := cfg.Geometry
	channels := 1
	if c.System.ChannelMode == "independent" {
		channels = geom.Channels
		geom.Channels = 1
	}
	devs := make([]*dram.Device, channels)
	for ch := range devs {
		d, err := dram.NewDevice(cfg.Timing, geom)
		if err != nil {
			return 0, err
		}
		devs[ch] = d
	}
	t0 := time.Now()
	for i, ev := range cmds {
		if ev.Channel < 0 || ev.Channel >= channels {
			return 0, fmt.Errorf("command %d on channel %d of %d", i, ev.Channel, channels)
		}
		d := devs[ev.Channel]
		if !d.CanIssue(ev.Cycle, ev.Cmd, ev.Bank, ev.Row) {
			return 0, fmt.Errorf("command %d (%v bank %d row %d at cycle %d, channel %d) is illegal",
				i, ev.Cmd, ev.Bank, ev.Row, ev.Cycle, ev.Channel)
		}
		d.Issue(ev.Cycle, ev.Cmd, ev.Bank, ev.Row)
	}
	return time.Since(t0), nil
}
