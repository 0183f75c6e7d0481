package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRunIndependentBasics(t *testing.T) {
	cfg := quickCfg(8) // 2 channels by default
	mix := workload.Figure9Workload()
	res, err := RunIndependent(cfg, mix, func() memctrl.Policy { return sched.NewPARBSDefault() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "PAR-BS x2-independent" {
		t.Errorf("policy = %q", res.Policy)
	}
	var reads int64
	for i, th := range res.Threads {
		if th.CPU.Instructions == 0 {
			t.Errorf("thread %d made no progress", i)
		}
		reads += th.Mem.ReadsCompleted
	}
	if reads == 0 || res.DRAM.Reads == 0 {
		t.Fatal("no memory traffic through independent channels")
	}
	// Requests in flight across the warmup reset complete after the device
	// counters are wiped, so allow a small skew.
	if diff := reads - res.DRAM.Reads; diff < -64 || diff > 64 {
		t.Errorf("thread reads %d vs device reads %d: skew too large", reads, res.DRAM.Reads)
	}
	if u := res.BusUtilization(); u <= 0 || u > 1 {
		t.Errorf("bus utilization %v out of range", u)
	}
}

func TestRunIndependentValidation(t *testing.T) {
	cfg := quickCfg(8)
	short := workload.Mix{Name: "short", Benchmarks: workload.Figure9Workload().Benchmarks[:2]}
	if _, err := RunIndependent(cfg, short, func() memctrl.Policy { return sched.NewFCFS() }); err == nil {
		t.Error("mismatched mix accepted")
	}
	if _, err := RunIndependent(cfg, workload.Figure9Workload(), func() memctrl.Policy { return nil }); err == nil {
		t.Error("nil factory product accepted")
	}
	bad := cfg
	bad.Cores = 0
	if _, err := RunIndependent(bad, workload.Figure9Workload(), func() memctrl.Policy { return sched.NewFCFS() }); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestChannelPortRouting checks line-granularity channel spreading and
// address compaction through the XOR-fold route: line 0 stays on channel 0,
// lines 1 and 2 fold to channel 1 for n=2, and per-controller addresses
// are contiguous. A lock-step port passes every address to its one shard
// unchanged.
func TestChannelPortRouting(t *testing.T) {
	p := &memPort{shards: make([]*shard, 2), route: true, line: 64}
	c0, a0 := p.target(0)
	c1, a1 := p.target(64)
	c2, a2 := p.target(128)
	if c0 != 0 || c1 != 1 || c2 != 1 {
		t.Errorf("channel routing = %d,%d,%d; want 0,1,1", c0, c1, c2)
	}
	if a0 != 0 || a1 != 0 || a2 != 64 {
		t.Errorf("compacted addrs = %d,%d,%d; want 0,0,64", a0, a1, a2)
	}
	lock := &memPort{shards: make([]*shard, 1), line: 64}
	if c, a := lock.target(100); c != 0 || a != 100 {
		t.Errorf("lock-step port routed 100 to (%d, %d); want (0, 100)", c, a)
	}
}

// TestIndependentVsGangedComparable: with the same aggregate bandwidth the
// two organizations should deliver broadly similar throughput on the same
// workload (within 35%), while per-channel scheduler state differs.
func TestIndependentVsGangedComparable(t *testing.T) {
	cfg := quickCfg(8)
	cfg.MeasureCPUCycles = 800_000
	mix := workload.Figure9Workload()
	ganged, err := Run(cfg, mix, sched.NewPARBSDefault())
	if err != nil {
		t.Fatal(err)
	}
	indep, err := RunIndependent(cfg, mix, func() memctrl.Policy { return sched.NewPARBSDefault() })
	if err != nil {
		t.Fatal(err)
	}
	var gi, ii int64
	for i := range ganged.Threads {
		gi += ganged.Threads[i].CPU.Instructions
		ii += indep.Threads[i].CPU.Instructions
	}
	lo, hi := float64(gi)*0.65, float64(gi)*1.35
	if float64(ii) < lo || float64(ii) > hi {
		t.Errorf("independent throughput %d vs ganged %d: outside comparable band", ii, gi)
	}
}

// instrumentedRun executes one fully-instrumented run, lock-step or
// independent-channel, and captures its command-stream digest (with
// channel stamps), telemetry report, trace log and result. The report's
// loop section is stripped, as in differentialRun.
func instrumentedRun(t *testing.T, polName string, mix workload.Mix, seed int64, channels int, independent, disableCache, forceTicked bool) (streamDigest, []byte, []byte, Result) {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 150_000
	cfg.Geometry.Channels = channels
	cfg.Ctrl.DisableCandidateCache = disableCache
	cfg.ForceTicked = forceTicked
	probe := telemetry.NewProbe(telemetry.Config{EpochDRAMCycles: 2048})
	cfg.Probe = probe
	tr := trace.NewTracer(trace.Config{})
	cfg.Tracer = tr
	h := fnv.New64a()
	var buf [8]byte
	var count int64
	cfg.CommandLog = func(ev memctrl.CommandEvent) {
		count++
		for _, v := range []int64{ev.Now, int64(ev.Channel), int64(ev.Cmd), int64(ev.Bank), ev.Row, int64(ev.Thread), ev.ReqID} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	factory := func() memctrl.Policy {
		pol, err := sched.ByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	var res Result
	var err error
	if independent {
		res, err = RunIndependent(cfg, mix, factory)
	} else {
		res, err = Run(cfg, mix, factory())
	}
	if err != nil {
		t.Fatalf("%s %s (channels=%d independent=%v ticked=%v): %v",
			polName, mix.Name, channels, independent, forceTicked, err)
	}
	rep := probe.Report(telemetry.ReportMeta{Policy: polName, Workload: mix.Name})
	rep.Loop = nil
	telJSON, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	if err := tr.WriteJSONL(&traceBuf); err != nil {
		t.Fatal(err)
	}
	return streamDigest{hash: h.Sum64(), count: count}, telJSON, traceBuf.Bytes(), res
}

// expectIdenticalShardRuns asserts a ticked and a skipping independent-
// channel run agree byte for byte on every observable output.
func expectIdenticalShardRuns(t *testing.T, polName string, mix workload.Mix, seed int64, channels int) {
	t.Helper()
	tick, tickTel, tickTr, _ := instrumentedRun(t, polName, mix, seed, channels, true, false, true)
	skip, skipTel, skipTr, _ := instrumentedRun(t, polName, mix, seed, channels, true, false, false)
	if tick.count == 0 {
		t.Fatal("ticked run issued no commands (vacuous)")
	}
	if tick != skip {
		t.Errorf("command streams diverge: ticked {hash %#x, %d cmds} vs skipping {hash %#x, %d cmds}",
			tick.hash, tick.count, skip.hash, skip.count)
	}
	if !bytes.Equal(tickTel, skipTel) {
		t.Errorf("telemetry reports differ (%d vs %d bytes)", len(tickTel), len(skipTel))
	}
	if !bytes.Equal(tickTr, skipTr) {
		t.Errorf("trace logs differ (%d vs %d bytes)", len(tickTr), len(skipTr))
	}
}

// TestIndependentOneChannelEqualsLockstep pins the two channel
// organizations to one run loop: with one channel, an independent system
// is a lock-step one, so for every registered policy the command stream
// (channel stamps included), telemetry report, trace body and Result must
// match. Only the result's policy-name suffix and the trace header's
// channel count tell them apart.
func TestIndependentOneChannelEqualsLockstep(t *testing.T) {
	mixes := workload.RandomMixes(2, 4, 20260808)
	if testing.Short() {
		mixes = mixes[:1]
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	for _, name := range policies {
		for mi := range mixes {
			name, mix, seed := name, mixes[mi], int64(31+mi)
			t.Run(fmt.Sprintf("%s/%s", name, mix.Name), func(t *testing.T) {
				t.Parallel()
				lock, lockTel, lockTr, lockRes := instrumentedRun(t, name, mix, seed, 1, false, false, false)
				ind, indTel, indTr, indRes := instrumentedRun(t, name, mix, seed, 1, true, false, false)
				if lock.count == 0 {
					t.Fatal("lock-step run issued no commands (vacuous)")
				}
				if lock != ind {
					t.Errorf("command streams diverge: lock-step {hash %#x, %d cmds} vs independent {hash %#x, %d cmds}",
						lock.hash, lock.count, ind.hash, ind.count)
				}
				if !bytes.Equal(lockTel, indTel) {
					t.Errorf("telemetry reports differ (%d vs %d bytes)", len(lockTel), len(indTel))
				}
				lockHead, lockBody, _ := bytes.Cut(lockTr, []byte("\n"))
				indHead, indBody, _ := bytes.Cut(indTr, []byte("\n"))
				if got := bytes.Replace(indHead, []byte(`"channels":1,`), nil, 1); !bytes.Equal(got, lockHead) {
					t.Errorf("trace headers differ beyond the channel count:\n%s\n%s", lockHead, indHead)
				}
				if !bytes.Equal(lockBody, indBody) {
					t.Errorf("trace bodies differ (%d vs %d bytes)", len(lockBody), len(indBody))
				}
				if want := lockRes.Policy + " x1-independent"; indRes.Policy != want {
					t.Errorf("independent policy = %q, want %q", indRes.Policy, want)
				}
				indRes.Policy = lockRes.Policy
				if !reflect.DeepEqual(lockRes, indRes) {
					t.Errorf("results differ:\nlock-step   %+v\nindependent %+v", lockRes, indRes)
				}
			})
		}
	}
}

// TestIndependentCancellation proves a canceled context aborts an
// independent-channel run at its first checkpoint with an error wrapping
// the context's.
func TestIndependentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel up front: the first checkpoint must observe it
	cfg := DefaultConfig(4)
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 400_000
	cfg.Geometry.Channels = 4
	cfg.Context = ctx
	_, err := RunIndependent(cfg, workload.CaseStudyI(), func() memctrl.Policy { return sched.NewPARBSDefault() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
}
