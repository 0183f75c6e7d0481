package parbs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// phaseRun is one RunContext call's observable outputs.
type phaseRun struct {
	report    string
	telemetry []byte
	events    []byte
}

func runPhases(t *testing.T, sys System, w Workload, opts ...RunOption) phaseRun {
	t.Helper()
	tel := NewTelemetry(TelemetryConfig{EpochCycles: 10_240})
	tr := NewTracer(TracerConfig{MaxEvents: 1 << 14})
	rep, err := RunContext(context.Background(), sys, w, NewPARBS(PARBSOptions{}),
		append(opts, WithTelemetry(tel), WithTrace(tr))...)
	if err != nil {
		t.Fatal(err)
	}
	var out phaseRun
	out.report = rep.String()
	if out.telemetry, err = tel.JSON(); err != nil {
		t.Fatal(err)
	}
	if out.events, err = tr.EventsJSONL(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunContextPhasesIdentical: running the shared run and its alone
// baselines side by side changes nothing observable. WithParallelism(1)
// runs every phase on the caller in order; the default and an explicit 4
// (overlapping phases even on one CPU) must give the same report,
// telemetry JSON and trace JSONL byte for byte, on the paper's Lockstep
// system and on an 8-core Independent-channel one.
func TestRunContextPhasesIdentical(t *testing.T) {
	ind := quickSystem(8)
	ind.ChannelMode = Independent
	ind.MeasureCycles = 200_000
	cases := []struct {
		name string
		sys  System
		w    Workload
	}{
		{"csi-lockstep", quickSystem(4), CaseStudyI()},
		{"8core-independent", ind, RandomWorkloads(1, 8, 3)[0]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq := runPhases(t, c.sys, c.w, WithParallelism(1))
			for _, par := range []int{0, 4} {
				got := runPhases(t, c.sys, c.w, WithParallelism(par))
				if got.report != seq.report {
					t.Errorf("parallelism %d report differs:\n seq: %s\n got: %s", par, seq.report, got.report)
				}
				if !bytes.Equal(got.telemetry, seq.telemetry) {
					t.Errorf("parallelism %d telemetry JSON differs from sequential", par)
				}
				if !bytes.Equal(got.events, seq.events) {
					t.Errorf("parallelism %d trace JSONL differs from sequential", par)
				}
			}
		})
	}
}

// TestWithProgressSerialized: heartbeats from concurrently running phases
// never enter the callback at the same time (run under -race), and the
// alone phases are all reported.
func TestWithProgressSerialized(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	var inside atomic.Int32
	phases := map[string]int{}
	_, err = RunContext(context.Background(), quickSystem(4), w, NewFRFCFS(),
		WithParallelism(4),
		WithProgress(func(p Progress) {
			if n := inside.Add(1); n != 1 {
				t.Errorf("progress callback entered %d times at once", n)
			}
			phases[p.Phase]++
			inside.Add(-1)
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{"warmup", "measure", "alone:mcf", "alone:lbm", "alone:hmmer", "alone:h264ref"} {
		if phases[ph] == 0 {
			t.Errorf("no heartbeat for phase %q (saw %v)", ph, phases)
		}
	}
}

// TestAloneErrorSurfacesAsItself: a failing alone baseline cancels the
// shared run beside it, and RunContext reports the baseline's own error,
// not the shared run's resulting cancellation — sequentially too.
func TestAloneErrorSurfacesAsItself(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "h264ref")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("lbm baseline failed")
	failLbm := func(rc *runConfig) {
		rc.runAlone = func(cfg sim.Config, p workload.Profile) (metrics.ThreadOutcome, error) {
			if p.Name == "lbm" {
				return metrics.ThreadOutcome{}, boom
			}
			return sim.RunAlone(cfg, p)
		}
	}
	for _, par := range []int{1, 4} {
		_, err := RunContext(context.Background(), quickSystem(4), w, NewFRFCFS(), WithParallelism(par), failLbm)
		if !errors.Is(err, boom) {
			t.Errorf("parallelism %d: got %v, want the lbm baseline's error", par, err)
		}
		if errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: got a sibling's cancellation %v", par, err)
		}
	}
	// A canceled parent context still surfaces as itself.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, quickSystem(4), w, NewFRFCFS(), WithParallelism(4)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled parent returned %v, want context.Canceled", err)
	}
}

// TestAloneCacheSingleFlight: two concurrent runs of one shape on one cold
// cache compute each distinct baseline once between them — the second
// caller to miss waits for the first caller's result.
func TestAloneCacheSingleFlight(t *testing.T) {
	w, err := WorkloadFromNames("mcf", "lbm", "hmmer", "mcf")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewAloneCache()
	var (
		mu      sync.Mutex
		entered = map[string]int{}
		reports [2]string
		errs    [2]error
		wg      sync.WaitGroup
	)
	for r := range reports {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			seen := map[string]bool{}
			rep, err := RunContext(context.Background(), quickSystem(4), w, NewFRFCFS(),
				WithAloneCache(cache),
				WithProgress(func(p Progress) {
					if strings.HasPrefix(p.Phase, "alone:") && !seen[p.Phase] {
						seen[p.Phase] = true
						mu.Lock()
						entered[p.Phase]++
						mu.Unlock()
					}
				}))
			reports[r], errs[r] = rep.String(), err
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if reports[0] != reports[1] {
		t.Errorf("concurrent runs disagree:\n%s\n%s", reports[0], reports[1])
	}
	for _, ph := range []string{"alone:mcf", "alone:lbm", "alone:hmmer"} {
		if entered[ph] != 1 {
			t.Errorf("phase %s entered %d times across both runs, want 1 (all: %v)", ph, entered[ph], entered)
		}
	}
	if len(entered) != 3 || cache.Len() != 3 {
		t.Errorf("entered %v with %d cached baselines, want 3 of each", entered, cache.Len())
	}
}

// TestAloneCacheFailedFlightNotCached: a failed computation is not cached;
// a caller that joined its flight, or arrives after it, computes the
// baseline itself. A waiter whose context ends stops waiting.
func TestAloneCacheFailedFlightNotCached(t *testing.T) {
	cache := NewAloneCache()
	key := aloneCacheKey{benchmark: "mcf"}
	started, release := make(chan struct{}), make(chan struct{})
	failed := make(chan error, 1)
	go func() {
		_, err := cache.baseline(context.Background(), key, func() (metrics.ThreadOutcome, error) {
			close(started)
			<-release
			return metrics.ThreadOutcome{}, errors.New("boom")
		})
		failed <- err
	}()
	<-started
	// The flight is registered before compute runs. Whether the second
	// caller joins it before the failure or arrives after, the outcome is
	// the same: the failure is not cached and the caller computes its own.
	want := metrics.ThreadOutcome{Benchmark: "mcf"}
	type result struct {
		out metrics.ThreadOutcome
		err error
	}
	second := make(chan result, 1)
	go func() {
		out, err := cache.baseline(context.Background(), key, func() (metrics.ThreadOutcome, error) {
			return want, nil
		})
		second <- result{out, err}
	}()
	close(release)
	if err := <-failed; err == nil {
		t.Error("failed computation reported success")
	}
	if r := <-second; r.err != nil || r.out != want {
		t.Fatalf("second caller got %+v, %v; want its own computation", r.out, r.err)
	}
	if cache.Len() != 1 {
		t.Errorf("cache has %d baselines, want 1", cache.Len())
	}

	cache2 := NewAloneCache()
	busy, hold := make(chan struct{}), make(chan struct{})
	defer close(hold)
	go func() {
		_, _ = cache2.baseline(context.Background(), key, func() (metrics.ThreadOutcome, error) {
			close(busy)
			<-hold
			return want, nil
		})
	}()
	<-busy
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cache2.baseline(ctx, key, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter returned %v, want context.Canceled", err)
	}
}
