package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// Metric is one named measurement in the final JSON line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Output collects metrics (in print order, each with a note such as its
// sample count or base), the op tally, and every failed output check.
type Output struct {
	names     []string
	metrics   map[string]Metric
	notes     map[string]string
	Attempted int
	Failed    int
	Problems  []string
	Notes     []string
}

func newOutput() *Output {
	return &Output{metrics: map[string]Metric{}, notes: map[string]string{}}
}

// Set records a metric; note says what it was computed over.
func (o *Output) Set(name string, v float64, unit, note string) {
	if _, ok := o.metrics[name]; !ok {
		o.names = append(o.names, name)
	}
	o.metrics[name] = Metric{Value: v, Unit: unit}
	o.notes[name] = note
}

// Op counts one attempted operation; a non-nil err counts it as failed and
// keeps the reason.
func (o *Output) Op(label string, err error) {
	o.Attempted++
	if err != nil {
		o.Failed++
		o.Problem(label, err)
	}
}

// Problem records a failed output check that is not tied to one op (a
// replayed command stream, a span file); it makes the run incorrect.
func (o *Output) Problem(label string, err error) {
	o.Problems = append(o.Problems, fmt.Sprintf("%s: %v", label, err))
}

// Note adds a free-text line to the printed table.
func (o *Output) Note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// Correct reports whether every output check passed.
func (o *Output) Correct() bool { return o.Failed == 0 && len(o.Problems) == 0 }

// Print writes the human-readable table, then the JSON result line.
func (o *Output) Print(w io.Writer) error {
	for _, n := range o.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "# CHECK FAILED %s\n", p)
	}
	for _, n := range o.names {
		m := o.metrics[n]
		fmt.Fprintf(w, "%-30s %16.6g %-6s %s\n", n, m.Value, m.Unit, o.notes[n])
	}
	res := Result{Correct: o.Correct(), Attempted: o.Attempted, Failed: o.Failed, Metrics: o.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostStamp identifies the host and build every output was measured on:
// CPU model, nproc, GOMAXPROCS, Go version, commit and the run's inputs.
func hostStamp(workload string, seed int64, trace bool) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d trace=%t",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, workload, seed, trace)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
