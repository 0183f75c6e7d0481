package sim

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tracedStream mirrors commandStream with a lifecycle tracer attached:
// identical configuration, same digest, plus the tracer recording.
func tracedStream(t *testing.T, name string, seed int64, tr *trace.Tracer) streamDigest {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 20_000
	cfg.MeasureCPUCycles = 300_000
	cfg.Tracer = tr
	h := fnv.New64a()
	var buf [8]byte
	var count int64
	cfg.CommandLog = func(ev memctrl.CommandEvent) {
		count++
		for _, v := range []int64{ev.Now, int64(ev.Cmd), int64(ev.Bank), ev.Row, int64(ev.Thread), ev.ReqID} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	pol, err := sched.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, workload.CaseStudyI(), pol); err != nil {
		t.Fatalf("%s seed %d traced: %v", name, seed, err)
	}
	return streamDigest{hash: h.Sum64(), count: count}
}

// TestTracedRunsPreserveCommandStream is the tracing golden-equivalence
// pin: attaching a lifecycle tracer must leave the DRAM command stream
// byte-identical for every registered policy — the tracer only observes.
func TestTracedRunsPreserveCommandStream(t *testing.T) {
	if testing.Short() {
		t.Skip("traced equivalence sweep is long; skipped with -short")
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	for _, name := range policies {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bare := commandStream(t, name, 1, false, nil)
			tr := trace.NewTracer(trace.Config{})
			traced := tracedStream(t, name, 1, tr)
			if bare.count == 0 {
				t.Fatal("bare run issued no commands (vacuous)")
			}
			if bare != traced {
				t.Errorf("tracer perturbed the command stream: bare {hash %#x, %d cmds} vs traced {hash %#x, %d cmds}",
					bare.hash, bare.count, traced.hash, traced.count)
			}
			if tr.Events() == 0 {
				t.Error("tracer recorded nothing; equivalence is vacuous")
			}
		})
	}
}

// runTraced executes one simulation with a fresh tracer and returns the
// recorded log.
func runTraced(t *testing.T, polName string, mix workload.Mix, seed int64) *trace.Log {
	t.Helper()
	cfg := DefaultConfig(len(mix.Benchmarks))
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 20_000
	cfg.MeasureCPUCycles = 400_000
	tr := trace.NewTracer(trace.Config{})
	cfg.Tracer = tr
	pol, err := sched.ByName(polName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, mix, pol); err != nil {
		t.Fatalf("%s on %s: %v", polName, mix.Name, err)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events; the run outgrew the buffer", tr.Dropped())
	}
	return tr.Log()
}

// TestTraceLifecycleOrdering: on a real PAR-BS run every completed read's
// lifecycle must be well-formed — arrival before mark and first command,
// first command before completion — and read commands must carry the
// thread's rank at issue. A mark AFTER the first command is legitimate (an
// unmarked request issues when its bank has no marked candidate, then a
// batch formation sweeps it up mid-flight), so only arrival anchors it.
func TestTraceLifecycleOrdering(t *testing.T) {
	log := runTraced(t, "PAR-BS", workload.CaseStudyI(), 1)
	type life struct {
		arrive, mark, firstCmd, complete int64
		seen                             bool
	}
	lives := make(map[int64]*life)
	ranked := 0
	var batches, drains int
	for _, ev := range log.Events {
		switch ev.Kind {
		case trace.KindArrive:
			lives[ev.Req] = &life{arrive: ev.Cycle, mark: -1, firstCmd: -1, complete: -1, seen: true}
		case trace.KindMark:
			l := lives[ev.Req]
			if l == nil {
				t.Fatalf("request %d marked before arrival was traced", ev.Req)
			}
			if l.mark < 0 {
				l.mark = ev.Cycle
			}
		case trace.KindCommand:
			if ev.Req < 0 {
				continue // controller-initiated refresh sequencing
			}
			if ev.Rank >= 0 {
				ranked++
			}
			if l := lives[ev.Req]; l != nil && l.firstCmd < 0 {
				l.firstCmd = ev.Cycle
			}
		case trace.KindComplete:
			if l := lives[ev.Req]; l != nil {
				l.complete = ev.Cycle
			}
		case trace.KindBatch:
			batches++
		case trace.KindBatchEnd:
			drains++
		}
	}
	completed := 0
	for id, l := range lives {
		if l.complete < 0 {
			continue // still in flight at run end
		}
		completed++
		if l.mark >= 0 && l.mark < l.arrive {
			t.Errorf("request %d marked at %d before arrival %d", id, l.mark, l.arrive)
		}
		if l.firstCmd >= 0 && l.firstCmd < l.arrive {
			t.Errorf("request %d first command %d before arrival %d", id, l.firstCmd, l.arrive)
		}
		if l.firstCmd >= 0 && l.complete < l.firstCmd {
			t.Errorf("request %d completed %d before first command %d", id, l.complete, l.firstCmd)
		}
	}
	if completed == 0 {
		t.Fatal("no completed requests traced; test is vacuous")
	}
	if batches == 0 || drains == 0 {
		t.Errorf("PAR-BS run traced %d batch formations, %d drains; want both > 0", batches, drains)
	}
	if ranked == 0 {
		t.Error("no command carried a thread rank; rank-at-issue is untraced")
	}
}

// attackMix is the memory-attack workload of the audit test: matlab is the
// paper's streaming hog (maximal row-buffer locality), the other three are
// its victims.
func attackMix(t *testing.T) workload.Mix {
	t.Helper()
	mix, err := workload.MixOf("attack", "matlab", "omnetpp", "hmmer", "sjeng")
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

// TestStarvationAuditEndToEnd drives the paper's §4.3 claim through the
// whole pipeline on two workloads: under PAR-BS no request waits more batch
// formations than the Marking-Cap bound allows and every latency fits the
// derived envelope, while FR-FCFS forms no batches and so offers no bound
// at all — exactly the starvation the attack workload exploits.
func TestStarvationAuditEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("audit runs four simulations; skipped with -short")
	}
	mixes := []workload.Mix{workload.CaseStudyI(), attackMix(t)}
	for _, mix := range mixes {
		mix := mix
		t.Run(mix.Name, func(t *testing.T) {
			t.Parallel()
			par := trace.Analyze(runTraced(t, "PAR-BS", mix, 1))
			if par.Requests == 0 || par.Batches == 0 {
				t.Fatalf("PAR-BS run traced %d requests, %d batches; vacuous", par.Requests, par.Batches)
			}
			if !par.Audit.Holds {
				t.Errorf("PAR-BS starvation bound violated on %s: %+v", mix.Name, par.Audit)
			}
			if par.Audit.MaxBatchesWaited > par.Audit.BatchWaitBound {
				t.Errorf("batch-wait: observed %d > bound %d", par.Audit.MaxBatchesWaited, par.Audit.BatchWaitBound)
			}

			fr := trace.Analyze(runTraced(t, "FR-FCFS", mix, 1))
			if fr.Audit.Batched || fr.Audit.Holds {
				t.Errorf("FR-FCFS audit should report no bound: %+v", fr.Audit)
			}
			t.Logf("%s worst read latency: PAR-BS %d cycles (envelope %d), FR-FCFS %d cycles",
				mix.Name, par.Audit.MaxDelayCycles, par.Audit.DelayBoundCycles, fr.Audit.MaxDelayCycles)
		})
	}
}

// TestTraceCapAcrossChannels: every channel of an independent-channel run
// records into the run's one buffer, so the cap bounds the run, not each
// channel. A capped 4-channel run keeps exactly MaxEvents events, counts
// the rest as dropped, and keeps the uncapped run's first MaxEvents events
// in processing order, batch shapes included.
func TestTraceCapAcrossChannels(t *testing.T) {
	traced := func(maxEvents int) *trace.Log {
		cfg := DefaultConfig(4)
		cfg.WarmupCPUCycles = 10_000
		cfg.MeasureCPUCycles = 150_000
		cfg.Geometry.Channels = 4
		tr := trace.NewTracer(trace.Config{MaxEvents: maxEvents})
		cfg.Tracer = tr
		if _, err := RunIndependent(cfg, workload.CaseStudyI(), func() memctrl.Policy { return sched.NewPARBSDefault() }); err != nil {
			t.Fatal(err)
		}
		return tr.Log()
	}
	full := traced(0)
	const capped = 5000
	if full.Dropped != 0 || len(full.Events) <= 2*capped {
		t.Fatalf("uncapped run recorded %d events (%d dropped); need well over %d", len(full.Events), full.Dropped, capped)
	}
	got := traced(capped)
	if len(got.Events) != capped {
		t.Errorf("capped run kept %d events, want %d", len(got.Events), capped)
	}
	if want := int64(len(full.Events) - capped); got.Dropped != want {
		t.Errorf("capped run dropped %d events, want %d", got.Dropped, want)
	}
	if !reflect.DeepEqual(got.Events, full.Events[:capped]) {
		t.Error("capped run's events are not the uncapped run's prefix")
	}
	if !reflect.DeepEqual(got.BatchPerThread, full.BatchPerThread[:len(got.BatchPerThread)]) {
		t.Error("capped run's batch shapes are not the uncapped run's prefix")
	}
	channels := map[int32]bool{}
	for _, ev := range got.Events {
		channels[ev.Channel] = true
	}
	if len(channels) != 4 {
		t.Errorf("kept events span %d channels, want 4", len(channels))
	}
}
