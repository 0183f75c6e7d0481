package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	parbs "repro"
	"repro/internal/dram"
	"repro/internal/serve"
)

func TestPercentileNearestRankWithCount(t *testing.T) {
	s := Sample{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {10, 1}, {100, 10}, {1, 1}, {95, 10}} {
		got, n := s.Percentile(tc.p)
		if got != tc.want || n != 10 {
			t.Errorf("p%v = %v over %d samples, want %v over 10", tc.p, got, n, tc.want)
		}
	}
	if got, n := (Sample{7, 3, 5}).Percentile(90); got != 7 || n != 3 {
		t.Errorf("p90 of 3 samples = %v (n=%d), want the largest, 7 (n=3)", got, n)
	}
	if got, n := (Sample{}).Percentile(50); !math.IsNaN(got) || n != 0 {
		t.Errorf("empty sample p50 = %v (n=%d), want NaN (n=0)", got, n)
	}
	if got := s.Median(); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 2, End: 5, Parent: 0},
		{Name: "b", Start: 4, End: 8, Parent: 0},  // overlaps a: 2..8 covered once
		{Name: "c", Start: 9, End: 12, Parent: 0}, // clipped to the parent: 9..10
		{Name: "leaf", Start: 2, End: 3, Parent: 1},
		{Name: "other", Start: 0, End: 4, Parent: -1},
	}
	self := SelfTimes(spans)
	want := map[string]float64{"root": 10 - 6 - 1, "a": 3 - 1, "b": 4, "c": 3, "leaf": 1, "other": 4}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
}

func sampleReport() parbs.Report {
	return parbs.Report{
		Scheduler:       "PAR-BS",
		Threads:         []parbs.ThreadReport{{Benchmark: "mcf", MemSlowdown: 2.2}, {Benchmark: "lbm", MemSlowdown: 1.8}},
		Unfairness:      2.2 / 1.8,
		WeightedSpeedup: 1.0,
		HmeanSpeedup:    0.5,
		BusUtilization:  0.7,
	}
}

func TestCheckerRejectsAlteredDigest(t *testing.T) {
	rep := sampleReport()
	k := &Checker{Cores: 2}
	if err := k.Check(rep); err != nil {
		t.Fatalf("first op: %v", err)
	}
	if err := k.Check(rep); err != nil {
		t.Fatalf("identical op: %v", err)
	}
	for name, alter := range map[string]func(*parbs.Report){
		"unfairness": func(r *parbs.Report) { r.Unfairness *= 1.0000001 },
		"speedup":    func(r *parbs.Report) { r.HmeanSpeedup = 0.51 },
		"bus":        func(r *parbs.Report) { r.BusUtilization = 0.69 },
		"slowdown":   func(r *parbs.Report) { r.Threads[1].MemSlowdown = 1.81 },
	} {
		r := sampleReport()
		r.Threads = append([]parbs.ThreadReport(nil), r.Threads...)
		alter(&r)
		if err := k.Check(r); err == nil {
			t.Errorf("altered %s: digest accepted", name)
		}
	}
	pinned := &Checker{Cores: 2, Expect: "PAR-BS unf=1 ws=1 hs=1 bus=1 sd=mcf:1,lbm:1"}
	if err := pinned.Check(rep); err == nil {
		t.Error("report differing from the pinned digest accepted")
	}
}

func TestCheckReportInvariants(t *testing.T) {
	for name, alter := range map[string]func(*parbs.Report){
		"unfairness<1": func(r *parbs.Report) { r.Unfairness = 0.99 },
		"bus=0":        func(r *parbs.Report) { r.BusUtilization = 0 },
		"bus>1":        func(r *parbs.Report) { r.BusUtilization = 1.01 },
		"NaN speedup":  func(r *parbs.Report) { r.WeightedSpeedup = math.NaN() },
		"thread count": func(r *parbs.Report) { r.Threads = r.Threads[:1] },
	} {
		r := sampleReport()
		alter(&r)
		if err := CheckReport(r, 2); err == nil {
			t.Errorf("%s: report accepted", name)
		}
	}
	if err := CheckReport(sampleReport(), 2); err != nil {
		t.Errorf("valid report rejected: %v", err)
	}
}

func TestReplayDeviceRejectsIllegalCommand(t *testing.T) {
	c, err := simCase("csi4-parbs", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	tRCD := dram.DDR2_800().TRCD
	legal := []cmdEvent{
		{Cycle: 0, Cmd: dram.CmdActivate, Bank: 0, Row: 5},
		{Cycle: tRCD, Cmd: dram.CmdRead, Bank: 0, Row: 5},
	}
	if _, err := replayDevice(c, legal); err != nil {
		t.Fatalf("legal stream rejected: %v", err)
	}
	for name, cmds := range map[string][]cmdEvent{
		"read before tRCD":  {legal[0], {Cycle: tRCD - 1, Cmd: dram.CmdRead, Bank: 0, Row: 5}},
		"read a closed row": {{Cycle: 0, Cmd: dram.CmdRead, Bank: 1, Row: 5}},
		"read another row":  {legal[0], {Cycle: tRCD, Cmd: dram.CmdRead, Bank: 0, Row: 6}},
		"bad channel":       {{Cycle: 0, Cmd: dram.CmdActivate, Bank: 0, Row: 5, Channel: 1}},
	} {
		if _, err := replayDevice(c, cmds); err == nil {
			t.Errorf("%s: illegal stream accepted", name)
		}
	}
	if _, err := parseCommand("XYZ"); err == nil {
		t.Error("unknown mnemonic parsed")
	}
	for _, cmd := range []dram.Command{dram.CmdActivate, dram.CmdPrecharge, dram.CmdRead, dram.CmdWrite, dram.CmdRefresh} {
		if got, err := parseCommand(cmd.String()); err != nil || got != cmd {
			t.Errorf("parseCommand(%q) = %v, %v", cmd.String(), got, err)
		}
	}
}

// loadFor runs one client against base until it has finished at least
// want jobs, and returns the records.
func loadFor(t *testing.T, base string, want int) []JobRecord {
	t.Helper()
	c := &Client{ID: 0, Seed: 1, Base: base, HTTP: newHTTPClient(), Window: 1}
	defer c.HTTP.CloseIdleConnections()
	var mu sync.Mutex
	var recs []JobRecord
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(context.Background(), stop, func(r JobRecord) {
			mu.Lock()
			recs = append(recs, r)
			n := len(recs)
			mu.Unlock()
			if n == want {
				close(stop)
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("client did not finish")
	}
	return recs
}

func TestClientCountsRejectionAsFailure(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == "POST" && posts.Add(1) == 1:
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		case r.Method == "POST":
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"r-1","status":"queued","submitted_at":"2024-01-01T00:00:00Z"}`))
		default:
			w.Write([]byte(`{"id":"r-1","status":"done","cached":false,"submitted_at":"2024-01-01T00:00:00Z","report":{}}`))
		}
	}))
	defer ts.Close()
	recs := loadFor(t, ts.URL, 2)
	out := newOutput()
	st := summarize(recs, out)
	if st.Rejected != 1 || out.Failed != 1 || out.Attempted != 2 || out.Correct() {
		t.Fatalf("rejected=%d failed=%d attempted=%d correct=%v; want one 429 counted as a failure of 2",
			st.Rejected, out.Failed, out.Attempted, out.Correct())
	}
	if !errors.Is(recs[0].Err, errRejected) {
		t.Errorf("first record error = %v, want the 429", recs[0].Err)
	}
}

func TestClientCountsFailedJob(t *testing.T) {
	srv := serve.New(serve.Options{Workers: 1, Runner: func(ctx context.Context, spec serve.Spec, sink serve.Sink) (*serve.Result, error) {
		return nil, errors.New("simulated failure")
	}})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	recs := loadFor(t, ts.URL, 3)
	out := newOutput()
	st := summarize(recs, out)
	if out.Failed != len(recs) || st.Done != 0 || out.Correct() {
		t.Fatalf("failed=%d of %d, done=%d; want every failed job counted", out.Failed, len(recs), st.Done)
	}
	if !strings.Contains(recs[0].Err.Error(), "failed") {
		t.Errorf("error %q does not name the failed status", recs[0].Err)
	}
}

// TestClientComparesReplayWithItsOriginal has the service answer a
// resubmission as a fresh run (not a cache hit) that finishes after a later
// job: the replay must be checked against its own original's report, not
// the client's latest.
func TestClientComparesReplayWithItsOriginal(t *testing.T) {
	var mu sync.Mutex
	type job struct {
		report string
		polls  int
		slow   bool
	}
	jobs := map[string]*job{}
	seen := map[string]bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.Method == "POST" && r.URL.Path == "/v1/runs":
			var sp serve.Spec
			json.NewDecoder(r.Body).Decode(&sp)
			key := fmt.Sprintf("%v|%v|%v|%d", sp.Workload.Mix, sp.Workload.Benchmarks, sp.Scheduler.Name, sp.System.Seed)
			id := fmt.Sprintf("r-%d", len(jobs))
			jobs[id] = &job{report: fmt.Sprintf(`{"spec":%q}`, key), slow: seen[key]}
			seen[key] = true
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":%q,"status":"queued","submitted_at":"2024-01-01T00:00:00Z"}`, id)
		case r.Method == "POST": // analysis of a traced job
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"report":{"events":1}}`))
		case strings.HasSuffix(r.URL.Path, "/trace"):
			w.Write([]byte("{\"events\":1}\n{}\n"))
		default:
			j := jobs[strings.TrimPrefix(r.URL.Path, "/v1/runs/")]
			j.polls++
			status := "done"
			if j.slow && j.polls < 3 {
				status = "running"
			}
			fmt.Fprintf(w, `{"status":%q,"submitted_at":"2024-01-01T00:00:00Z","report":%s}`, status, j.report)
		}
	}))
	defer ts.Close()
	c := &Client{ID: 0, Seed: 1, Base: ts.URL, HTTP: newHTTPClient(), Window: 2}
	defer c.HTTP.CloseIdleConnections()
	var recs []JobRecord
	stop := make(chan struct{})
	c.Run(context.Background(), stop, func(r JobRecord) {
		recs = append(recs, r)
		if len(recs) == 3*resubmitEvery {
			close(stop)
		}
	})
	if len(recs) < 3*resubmitEvery {
		t.Fatalf("%d jobs finished, want at least %d", len(recs), 3*resubmitEvery)
	}
	for i, r := range recs {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
	}
}

// TestClientStopsAtLimitAndTimesAnalysis runs a client with a submission
// limit against a stub service whose analysis takes a fixed time: the
// client must stop at the limit by itself, and a traced job's
// submit-to-result must include its analysis.
func TestClientStopsAtLimitAndTimesAnalysis(t *testing.T) {
	const analysisDelay = 20 * time.Millisecond
	var mu sync.Mutex
	posts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == "POST" && r.URL.Path == "/v1/runs":
			mu.Lock()
			posts++
			id := posts
			mu.Unlock()
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"r-%d","status":"queued","submitted_at":"2024-01-01T00:00:00Z"}`, id)
		case r.Method == "POST":
			time.Sleep(analysisDelay)
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"report":{"events":1}}`))
		case strings.HasSuffix(r.URL.Path, "/trace"):
			w.Write([]byte("{\"events\":1}\n{}\n"))
		default:
			fmt.Fprintf(w, `{"status":"done","submitted_at":"2024-01-01T00:00:00Z","report":{"n":%q}}`, r.URL.Path)
		}
	}))
	defer ts.Close()
	limit := traceOffset + 1
	c := &Client{ID: 0, Seed: 1, Base: ts.URL, HTTP: newHTTPClient(), Window: 3, Limit: limit}
	defer c.HTTP.CloseIdleConnections()
	var recs []JobRecord
	c.Run(context.Background(), make(chan struct{}), func(r JobRecord) { recs = append(recs, r) })
	if len(recs) != limit || posts != limit {
		t.Fatalf("%d jobs finished after %d submissions, want %d of each", len(recs), posts, limit)
	}
	traced := 0
	for i, r := range recs {
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
		if r.Kind != jobTraced {
			continue
		}
		traced++
		if r.Analysis < analysisDelay || r.Total < r.Analysis || r.Service() != r.Exec+r.Analysis {
			t.Errorf("traced job: analysis %v, total %v, service %v; want the analysis inside both", r.Analysis, r.Total, r.Service())
		}
	}
	if traced != 1 {
		t.Errorf("%d traced jobs in %d submissions, want 1", traced, limit)
	}
}

func TestServeJobsAreDistinctAndDeterministic(t *testing.T) {
	seen := map[string]bool{}
	for client := 0; client < serveClients; client++ {
		for n := 0; n < 3*len(jobMixes)*len(jobScheds); n++ {
			key := func(sp serve.Spec) string { return fmt.Sprintf("%+v|%+v|%+v", sp.System, sp.Workload, sp.Scheduler) }
			ka, kb := key(newJobSpec(1, client, n, false)), key(newJobSpec(1, client, n, false))
			if ka != kb {
				t.Fatalf("job %d of client %d differs between calls", n, client)
			}
			if seen[ka] {
				t.Fatalf("job %d of client %d repeats an earlier spec %s", n, client, ka)
			}
			seen[ka] = true
		}
	}
}

func TestSimCasesValidate(t *testing.T) {
	for _, name := range []string{"csi4-parbs", "light4-parbs", "ind16-parbs"} {
		c, err := simCase(name, HeldOutSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.Benchmark) != c.System.Cores {
			t.Errorf("%s: %d benchmarks for %d cores", name, len(c.Benchmark), c.System.Cores)
		}
		if _, ok := pinnedDigests[name]; !ok {
			t.Errorf("%s has no pinned digest", name)
		}
	}
	if _, err := simCase("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRefClockRatios(t *testing.T) {
	ref := &RefClock{Slices: Sample{40, 50, 60, 70, 80}}
	if got := ref.Mean(); got != 60 {
		t.Errorf("mean slice = %v, want 60", got)
	}
	// Each latency percentile is divided by the mean slice.
	lat := Sample{120, 150, 180, 210, 240}
	for p, want := range map[float64]float64{50: 3, 90: 4} {
		if got := ref.Ratio(lat, p); got != want {
			t.Errorf("p%v ratio = %v, want %v", p, got, want)
		}
	}
	r := newRefClock()
	r.Slice()
	r.Slice()
	if len(r.Slices) != 2 || !(r.Slices[0] > 0) || !(r.Slices[1] > 0) {
		t.Errorf("two slices recorded %v, want two positive wall times", r.Slices)
	}
}
