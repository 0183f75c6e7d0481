package sim

import (
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/telemetry"
)

// shard is one command stream's execution state: its device, controller
// and policy plus the controller-tick elision bookkeeping of the
// next-event clock.
type shard struct {
	ctrl   *memctrl.Controller
	dev    *dram.Device
	policy memctrl.Policy

	// Controller-tick elision: ctrlNext is the bound NextEventAt returned
	// after the last unproductive controller tick. Until that cycle — and as
	// long as no core enqueues a request, which invalidates the bound (the
	// enqueue count ctrlEnq no longer matches) — the controller tick is
	// skipped even while cores stay busy: nothing can retire (the bound caps
	// at the oldest in-flight burst's end), nothing can issue, and the
	// policy's OnCycle is inert between events (the NextEventer contract;
	// non-NextEventer policies pin the bound to now+1). The per-cycle BLP
	// accounting those ticks would have done accrues in ctrlIdle and is
	// applied in closed form before the next real tick or any stats read.
	ctrlNext int64
	ctrlIdle int64
	ctrlEnq  int64
}

// inert reports whether the shard's controller tick at DRAM cycle dc can
// be elided: dc precedes the shard's next-event bound and no enqueue has
// invalidated it.
func (s *shard) inert(dc int64) bool {
	return dc < s.ctrlNext && s.ctrl.Enqueues() == s.ctrlEnq
}

// tick runs the controller for DRAM cycle dc, refreshes the shard's
// next-event bound, and returns how many commands the controller issued.
func (s *shard) tick(dc int64) int64 {
	s.ctrlEnq = s.ctrl.Enqueues()
	s.flushIdle()
	before := s.ctrl.CommandsIssued()
	s.ctrl.Tick(dc)
	n := s.ctrl.CommandsIssued() - before
	if n == 0 {
		s.ctrlNext = s.ctrl.NextEventAt(dc)
	} else {
		s.ctrlNext = dc + 1
	}
	return n
}

// flushIdle applies the accumulated elided-cycle BLP accounting.
func (s *shard) flushIdle() {
	if s.ctrlIdle > 0 {
		s.ctrl.AccountIdleSpan(s.ctrlIdle)
		s.ctrlIdle = 0
	}
}

// pending returns the buffered reads across all shards.
func pending(shards []*shard) int {
	var t int
	for _, s := range shards {
		t += s.ctrl.PendingReads()
	}
	return t
}

// threadStats merges thread i's controller statistics across shards.
func threadStats(shards []*shard, i int) memctrl.ThreadStats {
	ms := shards[0].ctrl.ThreadStats(i)
	for _, s := range shards[1:] {
		ms = ms.Merge(s.ctrl.ThreadStats(i))
	}
	return ms
}

// memPort adapts the shards' controllers to the cpu.MemPort interface,
// carrying the current DRAM cycle. A lock-step system has one shard and
// passes addresses through; an independent one routes each cache line to
// its channel by dram.ChannelRoute.
type memPort struct {
	shards []*shard
	route  bool
	line   int64
	now    int64
}

// target returns the shard index and shard-local address for addr.
func (p *memPort) target(addr int64) (int, int64) {
	if !p.route {
		return 0, addr
	}
	return dram.ChannelRoute(addr, p.line, len(p.shards))
}

func (p *memPort) IssueRead(thread int, addr int64, tag int) bool {
	ch, addr := p.target(addr)
	r, ok := p.shards[ch].ctrl.EnqueueRead(thread, addr, p.now)
	if ok {
		r.Tag = tag
	}
	return ok
}

func (p *memPort) IssueWrite(thread int, addr int64) bool {
	ch, addr := p.target(addr)
	return p.shards[ch].ctrl.EnqueueWrite(thread, addr, p.now)
}

// sampler holds the preallocated scratch a probed run fills at each epoch
// boundary: per-thread controller stats merged across shards, and the
// shards' bank CAS counters concatenated into the probe's flat bank axis.
type sampler struct {
	probe      *telemetry.Probe
	cores      []*cpu.Core
	shards     []*shard
	threads    []telemetry.ThreadSample
	bankCAS    []int64
	nextSample int64
	epochLen   int64
}

// sample snapshots the cumulative simulation counters into the probe at the
// epoch ending at DRAM cycle end. Allocation-free.
func (s *sampler) sample(end int64) {
	for _, sh := range s.shards {
		sh.flushIdle()
	}
	for i, core := range s.cores {
		st := core.Stats()
		ms := threadStats(s.shards, i)
		queue := 0
		for _, sh := range s.shards {
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
	banks := len(s.bankCAS) / len(s.shards)
	for ch, sh := range s.shards {
		sh.dev.CopyBankCAS(s.bankCAS[ch*banks : (ch+1)*banks])
		st := sh.dev.Stats()
		ds.Reads += st.Reads
		ds.Writes += st.Writes
		ds.Activates += st.Activates
		ds.BusyCycles += st.BusyCycles / int64(len(s.shards)) // one-bus normalization, as in Result
	}
	s.probe.Sample(end, s.threads, s.bankCAS, ds)
	s.nextSample = end + s.epochLen
}
