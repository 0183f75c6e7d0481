package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	parbs "repro"
	"repro/internal/analysis"
	"repro/internal/serve"
)

// traceMaxEventsSim caps the traced run's lifecycle trace. The arrival
// replay and the trace and analysis timings cover the recorded prefix; an
// uncapped trace of a paper-length run is hundreds of megabytes.
const traceMaxEventsSim = 1 << 19

// timedRun runs the case once, recording the call as a span, returns its
// wall time, and counts it as one checked op: a run error or a report
// failing its checks counts as failed. Only a run error is returned, since
// nothing after it can be measured.
func timedRun(ctx context.Context, c SimCase, spans *Spans, name string, op int, check *Checker, out *Output, opts ...parbs.RunOption) (time.Duration, error) {
	id := spans.Begin(name, -1, op)
	start := time.Now()
	rep, err := c.Run(ctx, opts...)
	wall := time.Since(start)
	spans.End(id)
	label := fmt.Sprintf("%s op %d", name, op)
	if err != nil {
		out.Op(label, err)
		return 0, err
	}
	out.Op(label, check.Check(rep))
	return wall, nil
}

// layerSample holds one traced iteration's per-layer measurements.
type layerSample struct {
	// cold pays the alone baselines; shared, tel and tr reuse them from
	// cold's cache, so their walls are the shared run alone.
	cold, shared, full, tel, tr time.Duration
	skip                        Ratio
	evaluated                   float64
	traceBytes, events          int
	encode                      time.Duration
	ingest, analyze             time.Duration
	items                       int64
	itemTime                    time.Duration
	cpuCycles                   int64
	cpuTime                     time.Duration
	replay                      ReplayStats
	cmds                        int
	dramTime                    time.Duration
}

// loopBlock is the telemetry report's run-loop section.
type loopBlock struct {
	Loop *struct {
		TotalCycles     int64 `json:"total_cycles"`
		EvaluatedCycles int64 `json:"evaluated_cycles"`
		SkippedCycles   int64 `json:"skipped_cycles"`
	} `json:"loop"`
}

// traceLayers runs one traced iteration over a simulator case: a plain
// call with a fresh alone cache, the same call again on the now warm
// cache (the shared run alone; the difference is the alone runs), a fully
// instrumented call (telemetry, lifecycle trace, command log),
// telemetry-only and trace-only calls on the warm cache, then each layer
// harness on what the instrumented call recorded.
func traceLayers(ctx context.Context, c SimCase, spans *Spans, op int, check *Checker, out *Output) (layerSample, error) {
	var s layerSample
	var err error
	cache := parbs.NewAloneCache()
	if s.cold, err = timedRun(ctx, c, spans, "sim.run.cold", op, check, out, parbs.WithAloneCache(cache)); err != nil {
		return s, fmt.Errorf("plain run: %w", err)
	}
	if s.shared, err = timedRun(ctx, c, spans, "sim.run.shared", op, check, out, parbs.WithAloneCache(cache)); err != nil {
		return s, fmt.Errorf("warm plain run: %w", err)
	}

	tel := parbs.NewTelemetry(parbs.TelemetryConfig{})
	tracer := parbs.NewTracer(parbs.TracerConfig{MaxEvents: traceMaxEventsSim})
	var cmds []cmdEvent
	var parseErr error
	logCmd := parbs.WithCommandLog(func(ev parbs.CommandEvent) {
		cmd, err := parseCommand(ev.Command)
		if err != nil && parseErr == nil {
			parseErr = err
		}
		cmds = append(cmds, cmdEvent{Cycle: ev.Cycle, Cmd: cmd, Bank: ev.Bank, Row: ev.Row, Channel: ev.Channel})
	})
	if s.full, err = timedRun(ctx, c, spans, "sim.run.traced", op, check, out,
		parbs.WithTelemetry(tel), parbs.WithTrace(tracer), logCmd); err != nil {
		return s, fmt.Errorf("instrumented run: %w", err)
	}
	if parseErr != nil {
		return s, parseErr
	}
	if s.tel, err = timedRun(ctx, c, spans, "telemetry.run", op, check, out,
		parbs.WithAloneCache(cache), parbs.WithTelemetry(parbs.NewTelemetry(parbs.TelemetryConfig{}))); err != nil {
		return s, fmt.Errorf("telemetry run: %w", err)
	}
	if s.tr, err = timedRun(ctx, c, spans, "trace.run", op, check, out,
		parbs.WithAloneCache(cache), parbs.WithTrace(parbs.NewTracer(parbs.TracerConfig{MaxEvents: traceMaxEventsSim}))); err != nil {
		return s, fmt.Errorf("trace run: %w", err)
	}

	telJSON, err := tel.JSON()
	if err != nil {
		return s, err
	}
	var lb loopBlock
	if err := json.Unmarshal(telJSON, &lb); err != nil || lb.Loop == nil {
		return s, fmt.Errorf("telemetry report has no loop block (%v)", err)
	}
	s.skip = Ratio{Num: float64(lb.Loop.SkippedCycles), Den: float64(lb.Loop.TotalCycles)}
	s.evaluated = float64(lb.Loop.EvaluatedCycles)

	var buf bytes.Buffer
	id := spans.Begin("trace.encode", -1, op)
	t0 := time.Now()
	err = tracer.WriteEvents(&buf)
	s.encode = time.Since(t0)
	spans.End(id)
	if err != nil {
		return s, err
	}
	s.traceBytes, s.events = buf.Len(), tracer.Events()

	id = spans.Begin("analysis.ingest", -1, op)
	t0 = time.Now()
	store, err := analysis.Ingest(bytes.NewReader(buf.Bytes()))
	s.ingest = time.Since(t0)
	spans.End(id)
	if err != nil {
		return s, fmt.Errorf("ingest: %w", err)
	}
	if store.Events() != s.events {
		out.Problem("analysis", fmt.Errorf("ingest kept %d of %d traced events", store.Events(), s.events))
	}
	id = spans.Begin("analysis.analyze", -1, op)
	t0 = time.Now()
	rep := store.Analyze(analysis.Options{})
	s.analyze = time.Since(t0)
	spans.End(id)
	if rep.Events != s.events {
		out.Problem("analysis", fmt.Errorf("report covers %d of %d traced events", rep.Events, s.events))
	}
	log := store.ToLog()
	buf = bytes.Buffer{}

	id = spans.Begin("workload.count", -1, op)
	streams, err := countItems(c)
	spans.End(id)
	if err != nil {
		return s, fmt.Errorf("workload count: %w", err)
	}
	id = spans.Begin("workload.next", -1, op)
	s.itemTime, s.items = timeGenerators(streams)
	spans.End(id)

	id = spans.Begin("cpu.tick", -1, op)
	s.cpuTime, s.cpuCycles, err = tickCores(streams, c.System.WarmupCycles+c.System.MeasureCycles)
	spans.End(id)
	if err != nil {
		return s, fmt.Errorf("cpu: %w", err)
	}

	id = spans.Begin("memctrl.replay", -1, op)
	s.replay, err = replayController(c, log, cmds)
	spans.End(id)
	if err != nil {
		return s, fmt.Errorf("memctrl replay: %w", err)
	}

	id = spans.Begin("dram.replay", -1, op)
	s.dramTime, err = replayDevice(c, cmds)
	spans.End(id)
	s.cmds = len(cmds)
	if err != nil {
		out.Problem("dram replay", err)
	}
	return s, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reportLayers prints the per-layer metrics over the traced iterations:
// medians of the timings, the counts (identical in every iteration).
func reportLayers(out *Output, w io.Writer, samples []layerSample) {
	n := len(samples)
	med := func(f func(layerSample) float64) float64 {
		var v Sample
		for _, s := range samples {
			v = append(v, f(s))
		}
		return v.Median()
	}
	last := samples[n-1]
	note := fmt.Sprintf("median of %d traced iterations", n)
	out.Set("sim.shared_ms", med(func(s layerSample) float64 { return msOf(s.shared) }), "ms",
		"call with the alone baselines cached, "+note)
	out.Set("sim.alone_ms", med(func(s layerSample) float64 { return msOf(s.cold - s.shared) }), "ms",
		"call with a fresh alone cache minus sim.shared_ms, "+note)
	out.Set("sim.skip_ratio", last.skip.Value(), "frac", "skipped/total DRAM cycles of the shared run = "+last.skip.String())
	out.Set("sim.evaluated_cycles", last.evaluated, "count", "DRAM cycles the next-event loop evaluated")
	out.Set("workload.ns_per_item", med(func(s layerSample) float64 { return float64(s.itemTime) / float64(s.items) }), "ns",
		fmt.Sprintf("Next() over %d items, %s", last.items, note))
	out.Set("workload.items", float64(last.items), "count", "trace items the shared run consumed")
	out.Set("cpu.ns_per_cycle", med(func(s layerSample) float64 { return float64(s.cpuTime) / float64(s.cpuCycles) }), "ns",
		fmt.Sprintf("Core.Tick over %d CPU cycles against a null memory, %s", last.cpuCycles, note))
	out.Set("memctrl.ns_per_tick", med(func(s layerSample) float64 { return float64(s.replay.Wall) / float64(s.replay.Ticks) }), "ns",
		fmt.Sprintf("%d ticks replaying the recorded arrivals, %s", last.replay.Ticks, note))
	out.Set("memctrl.ns_per_command", med(func(s layerSample) float64 { return float64(s.replay.Wall) / float64(s.replay.Commands) }), "ns",
		fmt.Sprintf("%d replayed commands (the traced run issued %d over the same cycles; %d enqueue retries)",
			last.replay.Commands, last.replay.Recorded, last.replay.Retries))
	out.Set("memctrl.commands", float64(last.replay.Commands), "count", "commands the replayed controller issued")
	out.Set("memctrl.row_hit_rate", last.replay.RowHits.Value(), "frac", "row-hit reads / completed reads = "+last.replay.RowHits.String())
	out.Set("dram.ns_per_command", med(func(s layerSample) float64 { return float64(s.dramTime) / float64(s.cmds) }), "ns",
		fmt.Sprintf("CanIssue+Issue over %d logged commands, %s", last.cmds, note))
	out.Set("telemetry.overhead", med(func(s layerSample) float64 { return s.tel.Seconds()/s.shared.Seconds() - 1 }), "frac",
		"shared-run wall with telemetry / without - 1, "+note)
	out.Set("trace.overhead", med(func(s layerSample) float64 { return s.tr.Seconds()/s.shared.Seconds() - 1 }), "frac",
		"shared-run wall with the lifecycle tracer / without - 1, "+note)
	out.Set("trace.bytes_per_event", float64(last.traceBytes)/float64(last.events), "B",
		fmt.Sprintf("%d JSONL bytes / %d events", last.traceBytes, last.events))
	out.Set("trace.encode_mb_per_s", med(func(s layerSample) float64 { return float64(s.traceBytes) / 1e6 / s.encode.Seconds() }), "MB/s", note)
	out.Set("analysis.ingest_events_per_s", med(func(s layerSample) float64 { return float64(s.events) / s.ingest.Seconds() }), "1/s", note)
	out.Set("analysis.analyze_ms", med(func(s layerSample) float64 { return msOf(s.analyze) }), "ms", note)
	fmt.Fprintf(w, "# traced-vs-untraced: instrumented call %.1f ms vs plain %.1f ms (%+.1f%%), both paying the alone baselines, %s\n",
		med(func(s layerSample) float64 { return msOf(s.full) }), med(func(s layerSample) float64 { return msOf(s.cold) }),
		100*med(func(s layerSample) float64 { return s.full.Seconds()/s.cold.Seconds() - 1 }), note)
}

// reportServeLayers prints the serve.* metrics over a set of job records.
func reportServeLayers(out *Output, st ServeStats, submitted int) {
	q, nq := st.Queue.Percentile(50)
	e, ne := st.Exec.Percentile(50)
	h, nh := st.HTTP.Percentile(50)
	out.Set("serve.queue_wait_ms_p50", q, "ms", fmt.Sprintf("started-submitted, n=%d executed jobs", nq))
	out.Set("serve.exec_ms_p50", e, "ms", fmt.Sprintf("finished-started, n=%d", ne))
	out.Set("serve.http_ms_p50", h, "ms", fmt.Sprintf("submit-to-result minus queue, exec and analysis, n=%d done jobs", nh))
	hit := Ratio{Num: float64(st.Cached), Den: float64(st.Done)}
	out.Set("serve.cache_hit_ratio", hit.Value(), "frac", "result-cache replays / done jobs = "+hit.String())
	out.Set("serve.rejected", float64(st.Rejected), "count", fmt.Sprintf("429 responses of %d submissions", submitted))
}

// serveOneJob submits the case as one job and then resubmits it, through
// a fresh service: the serve-layer split for a simulator workload.
func serveOneJob(ctx context.Context, c SimCase, seed int64, spans *Spans, out *Output) error {
	s, err := startService(ctx, seed)
	if err != nil {
		return err
	}
	defer s.Close()
	cl := s.clients[0]
	cl.Spans = spans
	spec := serve.Spec{
		Client: "client-0",
		System: serve.SystemSpec{
			Cores: c.System.Cores, Channels: c.System.Channels, ChannelMode: string(c.System.ChannelMode),
			WarmupCycles: c.System.WarmupCycles, MeasureCycles: c.System.MeasureCycles, Seed: c.System.Seed,
		},
		Workload:  serve.WorkloadSpec{Benchmarks: c.Benchmark},
		Scheduler: serve.SchedulerSpec{Name: c.Scheduler},
	}
	var recs []JobRecord
	for _, kind := range []jobKind{jobNew, jobResubmit} {
		p := pending{kind: kind, spec: spec, submit: time.Now(), op: 1<<20 | len(recs), expect: cl.lastRep}
		p.span = spans.Begin("serve.job", -1, p.op)
		v, _, err := cl.submit(ctx, spec)
		for err == nil && (v.Status == "queued" || v.Status == "running") {
			time.Sleep(pollInterval)
			v, err = cl.get(ctx, v.ID)
		}
		r := JobRecord{Kind: kind, Err: err, Submit: p.submit, Done: time.Now()}
		if err == nil {
			r = cl.complete(ctx, p, v)
		}
		cl.finishSpan(p, r)
		recs = append(recs, r)
	}
	st := summarize(recs, out)
	reportServeLayers(out, st, len(recs))
	return nil
}

// runTraced is the traced run: it prints every per-layer metric, each
// layer's self time, and writes the spans when it ends.
func runTraced(ctx context.Context, name string, seed int64, seconds float64, dir string, w io.Writer, out *Output) error {
	spans := newSpans()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var c SimCase
	var err error
	if name == "serve-mixed" {
		e, err := runEpochs(ctx, seed, time.Duration(seconds/2*float64(time.Second)), spans, nil)
		if err != nil {
			return err
		}
		st := summarize(e.Recs, out)
		noteKinds(out, st)
		reportServeLayers(out, st, len(e.Recs))
		// The layer split runs on the service's most common job: Case
		// Study I under PAR-BS at the job cycle budget.
		if c, err = simCase("csi4-parbs", seed); err != nil {
			return err
		}
		c = c.Scaled(10)
		c.Name = "serve-mixed-job"
	} else {
		if c, err = simCase(name, seed); err != nil {
			return err
		}
	}
	check := newChecker(c, seed)
	var samples []layerSample
	for op := 0; len(samples) == 0 || time.Now().Before(deadline); op++ {
		s, err := traceLayers(ctx, c, spans, op, check, out)
		if err != nil {
			out.Problem(fmt.Sprintf("traced iteration %d", op), err)
			break
		}
		samples = append(samples, s)
	}
	if len(samples) == 0 {
		return fmt.Errorf("no traced iteration completed")
	}
	reportLayers(out, w, samples)
	if name != "serve-mixed" {
		if err := serveOneJob(ctx, c, seed, spans, out); err != nil {
			return fmt.Errorf("serve job: %w", err)
		}
	}

	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := spans.Write(path, strings.TrimPrefix(hostStamp(name, seed, true), "# ")); err != nil {
		out.Problem("spans", err)
	}
	self := SelfTimes(spans.List())
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# spans (name, start, end, parent, op) written to %s\n", path)
	for _, n := range names {
		fmt.Fprintf(w, "# self %-22s %12.3f ms\n", n, self[n])
	}
	return nil
}
