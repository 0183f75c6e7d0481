package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/memctrl"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The golden equivalence harness: the bank-indexed controller fast path must
// emit a byte-identical DRAM command stream to the original O(buffer)
// reference scan (memctrl.Config.ReferenceScan), for every registered
// scheduling policy across several workload seeds. Identical command streams
// imply identical timing, so every table and figure of the reproduction is
// provably unchanged by the scheduling-path rewrite.

// streamDigest hashes every issued DRAM command, field by field, plus the
// event count (so a truncated stream cannot collide with its prefix).
type streamDigest struct {
	hash  uint64
	count int64
}

// run simulates mix under the policy named name and digests its command
// stream. referenceScan selects the pre-index scheduling path; probe, when
// non-nil, attaches telemetry sampling (which must not change the stream).
func commandStream(t *testing.T, name string, seed int64, referenceScan bool, probe *telemetry.Probe) streamDigest {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 20_000
	cfg.MeasureCPUCycles = 300_000
	cfg.Ctrl.ReferenceScan = referenceScan
	cfg.Probe = probe
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var count int64
	cfg.CommandLog = func(ev memctrl.CommandEvent) {
		count++
		writeInt(ev.Now)
		writeInt(int64(ev.Cmd))
		writeInt(int64(ev.Bank))
		writeInt(ev.Row)
		writeInt(int64(ev.Thread))
		writeInt(ev.ReqID)
	}
	pol, err := sched.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, workload.CaseStudyI(), pol); err != nil {
		t.Fatalf("%s seed %d (reference=%v): %v", name, seed, referenceScan, err)
	}
	return streamDigest{hash: h.Sum64(), count: count}
}

// TestCommandStreamEquivalence pins the bank-indexed fast path to the
// reference scan for every paper and extra scheduler across three seeds.
func TestCommandStreamEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep is long; skipped with -short")
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	seeds := []int64{1, 2, 3}
	for _, name := range policies {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				ref := commandStream(t, name, seed, true, nil)
				fast := commandStream(t, name, seed, false, nil)
				if ref.count == 0 {
					t.Fatalf("seed %d: reference run issued no commands (vacuous)", seed)
				}
				if ref != fast {
					t.Errorf("seed %d: command streams diverge: reference {hash %#x, %d cmds} vs indexed {hash %#x, %d cmds}",
						seed, ref.hash, ref.count, fast.hash, fast.count)
				}
			}
		})
	}
}

// differentialRun executes one fully-instrumented run — command-stream
// digest, telemetry report and trace log all captured — under the chosen
// scheduling path (referenceScan), candidate-cache arm (disableCache) and
// run loop (forceTicked). The report's loop section is stripped before
// marshaling: it records evaluated/skipped cycle counts and so differs
// between the two loop modes by construction.
func differentialRun(t *testing.T, polName string, mix workload.Mix, seed int64, referenceScan, disableCache, forceTicked bool) (streamDigest, []byte, []byte) {
	t.Helper()
	cfg := DefaultConfig(4)
	cfg.Seed = seed
	cfg.WarmupCPUCycles = 10_000
	cfg.MeasureCPUCycles = 150_000
	cfg.Ctrl.ReferenceScan = referenceScan
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
		for _, v := range []int64{ev.Now, int64(ev.Cmd), int64(ev.Bank), ev.Row, int64(ev.Thread), ev.ReqID} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	pol, err := sched.ByName(polName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, mix, pol); err != nil {
		t.Fatalf("%s %s (reference=%v ticked=%v): %v", polName, mix.Name, referenceScan, forceTicked, err)
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
	return streamDigest{hash: h.Sum64(), count: count}, telJSON, traceBuf.Bytes()
}

// expectIdenticalRuns asserts the full observable output of a ticked and a
// skipping run match byte for byte.
func expectIdenticalRuns(t *testing.T, polName string, mix workload.Mix, seed int64, referenceScan bool) {
	t.Helper()
	tick, tickTel, tickTr := differentialRun(t, polName, mix, seed, referenceScan, false, true)
	skip, skipTel, skipTr := differentialRun(t, polName, mix, seed, referenceScan, false, false)
	if tick.count == 0 {
		t.Fatalf("ticked run issued no commands (vacuous)")
	}
	if tick != skip {
		t.Errorf("command streams diverge: ticked {hash %#x, %d cmds} vs skipping {hash %#x, %d cmds}",
			tick.hash, tick.count, skip.hash, skip.count)
	}
	if !bytes.Equal(tickTel, skipTel) {
		t.Errorf("telemetry reports differ between ticked and skipping runs (%d vs %d bytes)",
			len(tickTel), len(skipTel))
	}
	if !bytes.Equal(tickTr, skipTr) {
		t.Errorf("trace logs differ between ticked and skipping runs (%d vs %d bytes)",
			len(tickTr), len(skipTr))
	}
}

// TestTickedSkippedEquivalence is the differential fuzz harness for the
// next-event run loop: randomized small mixes crossed with every registered
// policy, run once with the legacy ticked loop and once with cycle skipping.
// Command stream, telemetry report and trace log must all be byte-identical
// (the loop accounting section aside). The reference-scan scheduling path is
// exercised separately below so both controller paths are pinned.
func TestTickedSkippedEquivalence(t *testing.T) {
	mixes := workload.RandomMixes(2, 4, 20260808)
	if testing.Short() {
		mixes = mixes[:1]
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	for _, name := range policies {
		for mi := range mixes {
			name, mix, seed := name, mixes[mi], int64(11+mi)
			t.Run(fmt.Sprintf("%s/%s", name, mix.Name), func(t *testing.T) {
				t.Parallel()
				expectIdenticalRuns(t, name, mix, seed, false)
			})
		}
	}
	t.Run("PAR-BS/reference-scan", func(t *testing.T) {
		t.Parallel()
		expectIdenticalRuns(t, "PAR-BS", workload.CaseStudyI(), 7, true)
	})
	t.Run("FR-FCFS/reference-scan", func(t *testing.T) {
		t.Parallel()
		expectIdenticalRuns(t, "FR-FCFS", workload.CaseStudyI(), 7, true)
	})
	// Independent channels: each shard elides its own controller ticks and
	// the shared clock jumps to the earliest wake across all of them.
	for _, name := range []string{"PAR-BS", "FR-FCFS", "STFM"} {
		name := name
		t.Run(name+"/independent-4ch", func(t *testing.T) {
			t.Parallel()
			expectIdenticalShardRuns(t, name, workload.CaseStudyI(), 13, 4)
		})
	}
	// Non-pow2 channel counts exercise the modulo route.
	t.Run("FR-FCFS/independent-3ch", func(t *testing.T) {
		t.Parallel()
		expectIdenticalShardRuns(t, "FR-FCFS", workload.CaseStudyI(), 7, 3)
	})
}

// TestCandidateCacheEquivalence is the candidate-cache differential matrix:
// for every registered policy, a run with the per-bank candidate cache
// enabled must match the cache-off run (memctrl.Config.DisableCandidateCache)
// byte for byte — command stream, telemetry and trace log — under both the
// next-event and the legacy ticked loop. The cache memoizes per-bank class
// winners keyed on the policy's OrderEpoch, so this matrix is the end-to-end
// proof of each policy's EpochedPolicy contract (DESIGN.md §16); run under
// -race in CI alongside the loop matrix.
func TestCandidateCacheEquivalence(t *testing.T) {
	mixes := workload.RandomMixes(2, 4, 20260808)
	if testing.Short() {
		mixes = mixes[:1]
	}
	policies := append(sched.Names(), sched.ExtraNames()...)
	for _, name := range policies {
		for mi := range mixes {
			name, mix, seed := name, mixes[mi], int64(53+mi)
			t.Run(fmt.Sprintf("%s/%s", name, mix.Name), func(t *testing.T) {
				t.Parallel()
				for _, ticked := range []bool{false, true} {
					on, onTel, onTr := differentialRun(t, name, mix, seed, false, false, ticked)
					off, offTel, offTr := differentialRun(t, name, mix, seed, false, true, ticked)
					if on.count == 0 {
						t.Fatalf("ticked=%v: cache-on run issued no commands (vacuous)", ticked)
					}
					if on != off {
						t.Errorf("ticked=%v: command streams diverge: cache-on {hash %#x, %d cmds} vs cache-off {hash %#x, %d cmds}",
							ticked, on.hash, on.count, off.hash, off.count)
					}
					if !bytes.Equal(onTel, offTel) {
						t.Errorf("ticked=%v: telemetry reports differ between cache arms (%d vs %d bytes)",
							ticked, len(onTel), len(offTel))
					}
					if !bytes.Equal(onTr, offTr) {
						t.Errorf("ticked=%v: trace logs differ between cache arms (%d vs %d bytes)",
							ticked, len(onTr), len(offTr))
					}
				}
			})
		}
	}
	// Independent channels must agree across cache arms too: each shard
	// controller keeps its own cache.
	for _, name := range []string{"PAR-BS", "STFM"} {
		name := name
		t.Run(name+"/independent-4ch", func(t *testing.T) {
			t.Parallel()
			on, onTel, onTr, _ := instrumentedRun(t, name, workload.CaseStudyI(), 7, 4, true, false, false)
			off, offTel, offTr, _ := instrumentedRun(t, name, workload.CaseStudyI(), 7, 4, true, true, false)
			if on.count == 0 {
				t.Fatal("cache-on independent run issued no commands (vacuous)")
			}
			if on != off {
				t.Errorf("independent command streams diverge across cache arms: on {hash %#x, %d cmds} vs off {hash %#x, %d cmds}",
					on.hash, on.count, off.hash, off.count)
			}
			if !bytes.Equal(onTel, offTel) {
				t.Errorf("independent telemetry reports differ between cache arms (%d vs %d bytes)", len(onTel), len(offTel))
			}
			if !bytes.Equal(onTr, offTr) {
				t.Errorf("independent trace logs differ between cache arms (%d vs %d bytes)", len(onTr), len(offTr))
			}
		})
	}
}

// perturbedFRFCFS is FR-FCFS with the final tie-break inverted
// (youngest-first): a deliberately wrong policy used to prove the
// equivalence harness detects differing schedules.
type perturbedFRFCFS struct{ aloneFRFCFS }

func (perturbedFRFCFS) Name() string { return "FR-FCFS-perturbed" }
func (perturbedFRFCFS) Better(a, b memctrl.Candidate) bool {
	if a.IsRowHit() != b.IsRowHit() {
		return a.IsRowHit()
	}
	return a.Req.ID > b.Req.ID
}

// TestEquivalenceHarnessDetectsPerturbation guards the golden test against
// passing vacuously: the same digest machinery must tell a perturbed policy
// apart from the policy it perturbs.
func TestEquivalenceHarnessDetectsPerturbation(t *testing.T) {
	digest := func(pol memctrl.Policy) streamDigest {
		cfg := DefaultConfig(4)
		cfg.WarmupCPUCycles = 0
		cfg.MeasureCPUCycles = 200_000
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
		if _, err := Run(cfg, workload.CaseStudyI(), pol); err != nil {
			t.Fatal(err)
		}
		return streamDigest{hash: h.Sum64(), count: count}
	}
	base := digest(aloneFRFCFS{})
	perturbed := digest(perturbedFRFCFS{})
	if base.count == 0 || perturbed.count == 0 {
		t.Fatal("runs issued no commands; harness cannot discriminate")
	}
	if base == perturbed {
		t.Fatalf("perturbed policy produced an identical stream digest (%#x, %d cmds); the golden test would pass vacuously",
			base.hash, base.count)
	}
}
