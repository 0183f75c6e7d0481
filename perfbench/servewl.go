package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/serve"
)

// serve-mixed shape: two closed-loop clients, each on one keep-alive
// connection with a fixed window of outstanding jobs, against one
// simulation worker. With two workers on a 2-CPU host the simulations
// starve the client and HTTP goroutines, and run-to-run spread doubles.
const (
	serveClients = 2
	serveWindow  = 2
	serveWorkers = 1
	// Job budget: a tenth of the paper's cycle budget.
	jobWarmup  = paperWarmup / 10
	jobMeasure = paperMeasure / 10
	// The load runs in epochs: each epoch boots a fresh service and every
	// client submits epochSubmits jobs, the same sequence every epoch. The
	// service keeps every result (and a traced job's trace) in its cache,
	// so a bounded epoch holds the process's memory at a fixed amount of
	// work however fast the jobs run.
	epochSubmits = 100
	// Every resubmitEvery-th submission of a client resubmits its latest
	// completed new run (a result-cache replay, a fifth of submissions);
	// every traceEvery-th (from traceOffset) carries telemetry and
	// trace.events capped at traceMaxEvents, and is followed by POST
	// /v1/analysis. traceEvery and traceMaxEvents are chosen so that traced
	// jobs, analysis included, take about a quarter of the service time
	// (the run prints the measured shares).
	resubmitEvery  = 5
	traceEvery     = 20
	traceOffset    = 3
	traceMaxEvents = 6144
	pollInterval   = time.Millisecond
)

// jobMixes and jobScheds are the rotation new jobs walk through: the three
// case studies and three named 4-core mixes, under three policies.
var (
	jobMixes = []serve.WorkloadSpec{
		{Mix: "CSI"}, {Mix: "CSII"}, {Mix: "CSIII"},
		{Benchmarks: []string{"lbm", "mcf", "gcc", "povray"}},
		{Benchmarks: []string{"matlab", "libquantum", "milc", "xml-parser"}},
		{Benchmarks: []string{"omnetpp", "astar", "hmmer", "bzip2"}},
	}
	jobScheds = []string{"PAR-BS", "FR-FCFS", "STFM"}
)

// jobKind says what a job exercises.
type jobKind int

const (
	jobNew jobKind = iota
	jobTraced
	jobResubmit
)

// newJobSpec is the n-th new run of a client in an epoch: it walks the
// mix x policy rotation, and each full round moves to a fresh system seed
// so later rounds miss the result cache while sharing alone baselines
// across the policies of a round.
func newJobSpec(seed int64, client, n int, traced bool) serve.Spec {
	combos := len(jobMixes) * len(jobScheds)
	round := int64(n / combos)
	k := n % combos
	sp := serve.Spec{
		Client: fmt.Sprintf("client-%d", client),
		System: serve.SystemSpec{
			Cores: 4, WarmupCycles: jobWarmup, MeasureCycles: jobMeasure,
			Seed: 1 + (seed*1_000_003+round)*serveClients + int64(client),
		},
		Workload:  jobMixes[k%len(jobMixes)],
		Scheduler: serve.SchedulerSpec{Name: jobScheds[k/len(jobMixes)]},
	}
	if traced {
		sp.Telemetry = &serve.TelemetrySpec{}
		sp.Trace = &serve.TraceSpec{MaxEvents: traceMaxEvents, Events: true}
	}
	return sp
}

// jobView is the subset of the service's job record the client reads.
type jobView struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	Cached      bool            `json:"cached"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at"`
	FinishedAt  *time.Time      `json:"finished_at"`
	Report      json.RawMessage `json:"report"`
	Error       string          `json:"error"`
}

// JobRecord is one finished job as the client saw it.
type JobRecord struct {
	Kind   jobKind
	Cached bool
	Err    error
	// Total is submit-to-result at the client, a traced job's analysis
	// included; Queue, Exec, Analysis and HTTP split it into the service's
	// started-submitted and finished-started, the trace fetch and POST
	// /v1/analysis, and the remainder (request, polling and encoding).
	Total, Queue, Exec, Analysis, HTTP time.Duration
	Submit, Done                       time.Time
}

// Service is the job's share of the service's work: the worker's run and
// the analysis of its trace, or for a replay its submission round trip.
func (r JobRecord) Service() time.Duration {
	if r.Cached {
		return r.Total
	}
	return r.Exec + r.Analysis
}

// errRejected marks a submission the service refused with 429.
var errRejected = errors.New("submission rejected with 429")

// Client is one closed-loop load generator on a single connection.
type Client struct {
	ID     int
	Seed   int64
	Base   string
	HTTP   *http.Client
	Spans  *Spans // nil when untraced
	Window int
	// Limit ends the loop after this many submissions (0 = until stop).
	Limit int

	newRuns  int
	jobs     int
	lastSpec *serve.Spec
	lastRep  json.RawMessage
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

type pending struct {
	id     string
	kind   jobKind
	spec   serve.Spec
	submit time.Time
	op     int
	span   int
	// expect is, for a resubmission, the original run's report; taken at
	// submission, since later runs replace the client's latest report.
	expect json.RawMessage
}

// next builds the client's next submission.
func (c *Client) next() (serve.Spec, jobKind) {
	i := c.jobs
	c.jobs++
	if i%resubmitEvery == resubmitEvery-1 && c.lastSpec != nil {
		return *c.lastSpec, jobResubmit
	}
	traced := i%traceEvery == traceOffset
	sp := newJobSpec(c.Seed, c.ID, c.newRuns, traced)
	c.newRuns++
	if traced {
		return sp, jobTraced
	}
	return sp, jobNew
}

// Run drives the closed loop until stop closes or the client has made
// Limit submissions, then drains its window.
// Every finished job is handed to record.
func (c *Client) Run(ctx context.Context, stop <-chan struct{}, record func(JobRecord)) {
	var open []pending
	stopped := false
	for {
		if !stopped {
			select {
			case <-stop:
				stopped = true
			default:
			}
		}
		for !stopped && len(open) < c.Window {
			if c.Limit > 0 && c.jobs >= c.Limit {
				stopped = true
				break
			}
			spec, kind := c.next()
			p := pending{kind: kind, spec: spec, submit: time.Now(), op: c.ID<<20 | c.jobs, span: -1, expect: c.lastRep}
			if c.Spans != nil {
				p.span = c.Spans.Begin("serve.job", -1, p.op)
			}
			v, code, err := c.submit(ctx, spec)
			switch {
			case err != nil:
				record(c.finishSpan(p, JobRecord{Kind: kind, Err: err, Submit: p.submit, Done: time.Now()}))
			case code == http.StatusOK:
				// Result-cache replay: complete on submission.
				record(c.finishSpan(p, c.complete(ctx, p, v)))
			default:
				p.id = v.ID
				open = append(open, p)
			}
		}
		if stopped && len(open) == 0 {
			return
		}
		progressed := false
		kept := open[:0]
		for _, p := range open {
			v, err := c.get(ctx, p.id)
			if err == nil && (v.Status == "queued" || v.Status == "running") {
				kept = append(kept, p)
				continue
			}
			progressed = true
			if err != nil {
				record(c.finishSpan(p, JobRecord{Kind: p.kind, Err: err, Submit: p.submit, Done: time.Now()}))
				continue
			}
			record(c.finishSpan(p, c.complete(ctx, p, v)))
		}
		open = kept
		if !progressed {
			time.Sleep(pollInterval)
		}
	}
}

// finishSpan closes the job's span; the service-side phases were added as
// its children by complete.
func (c *Client) finishSpan(p pending, r JobRecord) JobRecord {
	if c.Spans != nil && p.span >= 0 {
		c.Spans.End(p.span)
	}
	return r
}

// complete checks a terminal job view, analyses a traced job's trace,
// and fills its record.
func (c *Client) complete(ctx context.Context, p pending, v jobView) JobRecord {
	r := JobRecord{Kind: p.kind, Cached: v.Cached, Submit: p.submit}
	if v.Status != "done" {
		r.Err = fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	if v.StartedAt != nil && v.FinishedAt != nil {
		r.Queue = v.StartedAt.Sub(v.SubmittedAt)
		r.Exec = v.FinishedAt.Sub(*v.StartedAt)
		if c.Spans != nil {
			c.Spans.Add("serve.queue", p.span, p.op, v.SubmittedAt, *v.StartedAt)
			c.Spans.Add("serve.exec", p.span, p.op, *v.StartedAt, *v.FinishedAt)
		}
	}
	switch {
	case r.Err != nil:
	case p.kind == jobResubmit:
		if !v.Cached {
			// The original finished but its result was not yet published
			// to the cache when the resubmission arrived: a re-run, not a
			// replay. Its report must still match.
			r.Kind = jobNew
		}
		if !bytes.Equal(v.Report, p.expect) {
			r.Err = fmt.Errorf("replayed job %s report differs from its original", v.ID)
		}
	case p.kind == jobTraced:
		t0 := time.Now()
		r.Err = c.analyze(ctx, v.ID)
		r.Analysis = time.Since(t0)
		if c.Spans != nil {
			c.Spans.Add("serve.analysis", p.span, p.op, t0, t0.Add(r.Analysis))
		}
	}
	r.Done = time.Now()
	r.Total = r.Done.Sub(p.submit)
	r.HTTP = r.Total - r.Queue - r.Exec - r.Analysis
	if r.Err == nil && p.kind != jobResubmit {
		spec := p.spec
		c.lastSpec, c.lastRep = &spec, v.Report
	}
	return r
}

func (c *Client) do(ctx context.Context, method, path, ctype string, body []byte, into any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests {
			return resp.StatusCode, errRejected
		}
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func (c *Client) submit(ctx context.Context, spec serve.Spec) (jobView, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobView{}, 0, err
	}
	var v jobView
	code, err := c.do(ctx, "POST", "/v1/runs", "application/json", body, &v)
	return v, code, err
}

func (c *Client) get(ctx context.Context, id string) (jobView, error) {
	var v jobView
	_, err := c.do(ctx, "GET", "/v1/runs/"+id, "", nil, &v)
	return v, err
}

// analyze posts the job's trace for analysis and checks that the report
// covers exactly the events the trace header announces.
func (c *Client) analyze(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.Base+"/v1/runs/"+id+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	var hdr struct {
		Events  int   `json:"events"`
		Dropped int64 `json:"dropped"`
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &hdr)
	}
	io.Copy(io.Discard, br)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("trace header of %s: %w", id, err)
	}
	var created struct {
		Report struct {
			Events  int   `json:"events"`
			Dropped int64 `json:"dropped"`
		} `json:"report"`
	}
	body, _ := json.Marshal(map[string]string{"run": id}) // a string map always marshals
	if _, err := c.do(ctx, "POST", "/v1/analysis", "application/json", body, &created); err != nil {
		return err
	}
	if created.Report.Events != hdr.Events || hdr.Events == 0 {
		return fmt.Errorf("analysis of %s reports %d events, trace header says %d", id, created.Report.Events, hdr.Events)
	}
	return nil
}

// Service is one in-process parbs-serve instance behind a loopback server,
// with its clients.
type Service struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*Client
}

// startService boots the service and its clients and pushes one small
// job through each client's connection.
func startService(ctx context.Context, seed int64) (*Service, error) {
	s := &Service{srv: serve.New(serve.Options{Workers: serveWorkers})}
	s.ts = httptest.NewServer(s.srv.Handler())
	for i := 0; i < serveClients; i++ {
		c := &Client{ID: i, Seed: seed, Base: s.ts.URL, HTTP: newHTTPClient(), Window: serveWindow}
		s.clients = append(s.clients, c)
		warm := newJobSpec(seed, i, 0, false)
		warm.System.WarmupCycles /= 20
		warm.System.MeasureCycles /= 20
		warm.System.Seed = -1 - int64(i)
		v, _, err := c.submit(ctx, warm)
		for err == nil && (v.Status == "queued" || v.Status == "running") {
			time.Sleep(pollInterval)
			v, err = c.get(ctx, v.ID)
		}
		if err == nil && v.Status != "done" {
			err = fmt.Errorf("warm-up job ended %s: %s", v.Status, v.Error)
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return s, nil
}

// Close drains the service and shuts its listener and connections.
func (s *Service) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Callers close a service once its clients' jobs have finished, so the
	// drain returns at once; a drain timeout would change nothing here.
	_ = s.srv.Shutdown(ctx)
	for _, c := range s.clients {
		c.HTTP.CloseIdleConnections()
	}
	s.ts.Close()
}

// Load runs one epoch: every client until it has made epochSubmits
// submissions or stop closes. It returns the finished jobs.
func (s *Service) Load(ctx context.Context, stop <-chan struct{}, spans *Spans) []JobRecord {
	var mu sync.Mutex
	var recs []JobRecord
	var wg sync.WaitGroup
	for _, c := range s.clients {
		c.Spans, c.Limit = spans, epochSubmits
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			c.Run(ctx, stop, func(r JobRecord) {
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			})
		}(c)
	}
	wg.Wait()
	return recs
}

// Epochs is what runEpochs measured.
type Epochs struct {
	Recs []JobRecord
	// N is the number of epochs begun; Setup holds each one's service
	// start in seconds, and Load sums their walls from the first
	// submission to the last result.
	N     int
	Setup Sample
	Load  time.Duration
}

// refPerEpoch is how many reference slices an untraced run makes after
// each epoch, while no service is up.
const refPerEpoch = 4

// runEpochs drives the closed loop for d, one fresh service per epoch of
// epochSubmits submissions per client, each epoch followed by refPerEpoch
// slices of ref when ref is not nil.
func runEpochs(ctx context.Context, seed int64, d time.Duration, spans *Spans, ref *RefClock) (Epochs, error) {
	stop := make(chan struct{})
	timer := time.AfterFunc(d, func() { close(stop) })
	defer timer.Stop()
	var e Epochs
	for ; ; e.N++ {
		select {
		case <-stop:
			return e, nil
		default:
		}
		t0 := time.Now()
		s, err := startService(ctx, seed)
		if err != nil {
			return e, fmt.Errorf("epoch %d: %w", e.N, err)
		}
		t1 := time.Now()
		e.Setup = append(e.Setup, t1.Sub(t0).Seconds())
		e.Recs = append(e.Recs, s.Load(ctx, stop, spans)...)
		e.Load += time.Since(t1)
		s.Close()
		for i := 0; ref != nil && i < refPerEpoch; i++ {
			ref.Slice()
		}
	}
}

// setUpService boots and closes the service setupReps times and returns
// the set-up times.
func setUpService(ctx context.Context, seed int64) (Sample, error) {
	var setup Sample
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := startService(ctx, seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		s.Close()
	}
	return setup, nil
}

// kindNames labels the job kinds in the printed shares; a resubmission the
// service ran again instead of replaying counts as a new run.
var kindNames = [...]string{jobNew: "new run", jobTraced: "traced+analysis", jobResubmit: "replay"}

// ServeStats summarizes a load run's job records.
type ServeStats struct {
	Total, Queue, Exec, HTTP       Sample
	Done, Cached, Rejected, Failed int
	SharedDRAMCycles               int64
	// Kinds counts the done jobs of each kind and sums their service time.
	Kinds [len(kindNames)]struct {
		N       int
		Service time.Duration
	}
}

func summarize(recs []JobRecord, out *Output) ServeStats {
	var st ServeStats
	for i, r := range recs {
		out.Op(fmt.Sprintf("job %d", i), r.Err)
		if r.Err != nil {
			if errors.Is(r.Err, errRejected) {
				st.Rejected++
			}
			st.Failed++
			continue
		}
		st.Done++
		st.Kinds[r.Kind].N++
		st.Kinds[r.Kind].Service += r.Service()
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		st.Total = append(st.Total, ms(r.Total))
		st.HTTP = append(st.HTTP, ms(r.HTTP))
		if r.Cached {
			st.Cached++
			continue
		}
		st.Queue = append(st.Queue, ms(r.Queue))
		st.Exec = append(st.Exec, ms(r.Exec))
		st.SharedDRAMCycles += (jobWarmup + jobMeasure) / cpuPerDRAM
	}
	return st
}

// noteKinds prints each job kind's share of the done jobs and of the
// summed service time.
func noteKinds(out *Output, st ServeStats) {
	var total time.Duration
	for _, k := range st.Kinds {
		total += k.Service
	}
	for i, k := range st.Kinds {
		jobs := Ratio{Num: float64(k.N), Den: float64(st.Done)}
		svc := Ratio{Num: k.Service.Seconds(), Den: total.Seconds()}
		out.Note("kind %-16s job share %s, service-time share %.4f (%.3f s of %.3f s)",
			kindNames[i], jobs, svc.Value(), svc.Num, svc.Den)
	}
}

// runServe measures serve-mixed with tracing off. Set-ups are the initial
// ones and each epoch's service start; reference slices run between
// epochs.
func runServe(ctx context.Context, seed int64, seconds float64, out *Output) error {
	setup, err := setUpService(ctx, seed)
	if err != nil {
		return err
	}
	ref := newRefClock()
	ref.Slice() // warms the kernel up; not a sample
	ref.Slices = nil
	e, err := runEpochs(ctx, seed, time.Duration(seconds*float64(time.Second)), nil, ref)
	if err != nil {
		return err
	}
	st := summarize(e.Recs, out)
	if st.Done == 0 {
		return fmt.Errorf("no job completed")
	}
	noteKinds(out, st)
	out.Note("%d service epochs of %d submissions per client, %.3f s under load", e.N, epochSubmits, e.Load.Seconds())
	out.Note("%s", ref.Note())
	setup = append(setup, e.Setup...)
	load := msOf(e.Load) / ref.Mean()
	p50, n := st.Total.Percentile(50)
	p90, _ := st.Total.Percentile(90)
	out.Set("setup_s", setup.Median(), "s", fmt.Sprintf("median of %d set-ups (server, %d connections, one warm job each), one per epoch after the first %d", len(setup), serveClients, setupReps))
	out.Set("dram_cycles_per_ref", float64(st.SharedDRAMCycles)/load, "1/ref",
		fmt.Sprintf("shared-run DRAM cycles of %d executed jobs / %.2f ref under load", len(st.Exec), load))
	out.Set("jobs_per_ref", float64(st.Done)/load, "1/ref", fmt.Sprintf("%d done jobs / %.2f ref under load", st.Done, load))
	out.Set("job_ref_p50", ref.Ratio(st.Total, 50), "ref", fmt.Sprintf("%.3f ms, n=%d submit-to-result", p50, n))
	out.Set("job_ref_p90", ref.Ratio(st.Total, 90), "ref", fmt.Sprintf("%.3f ms, n=%d", p90, n))
	return nil
}
