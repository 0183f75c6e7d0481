package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's exported entry point. Times are milliseconds since the
// traced run began; spans of one op share Op, and Parent indexes the span
// that caused this one (-1 for a root).
type Span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
}

// Spans keeps a traced run's spans in memory until Write.
type Spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []Span
}

func newSpans() *Spans { return &Spans{t0: time.Now()} }

func (s *Spans) ms(t time.Time) float64 { return float64(t.Sub(s.t0)) / float64(time.Millisecond) }

// Begin opens a span now and returns its index.
func (s *Spans) Begin(name string, parent, op int) int {
	now := s.ms(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, Span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(s.list) - 1
}

// End closes span i now.
func (s *Spans) End(i int) {
	now := s.ms(time.Now())
	s.mu.Lock()
	s.list[i].End = now
	s.mu.Unlock()
}

// Add records a span from timestamps taken elsewhere (the service's own
// job record, a progress callback).
func (s *Spans) Add(name string, parent, op int, start, end time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, Span{Name: name, Start: s.ms(start), End: s.ms(end), Parent: parent, Op: op})
	return len(s.list) - 1
}

// List returns a copy of the recorded spans.
func (s *Spans) List() []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.list...)
}

// Write stores the spans as JSON lines in path, after a first line
// {"stamp": ...} naming the host and inputs they were measured on.
func (s *Spans) Write(path, stamp string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]string{"stamp": stamp}); err != nil {
		f.Close()
		return err
	}
	for _, sp := range s.List() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func SelfTimes(list []Span) map[string]float64 {
	children := make([][]int, len(list))
	for i, sp := range list {
		if sp.Parent >= 0 && sp.Parent < len(list) {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := map[string]float64{}
	for i, sp := range list {
		var ivs [][2]float64
		for _, c := range children[i] {
			lo, hi := max(list[c].Start, sp.Start), min(list[c].End, sp.End)
			if hi > lo {
				ivs = append(ivs, [2]float64{lo, hi})
			}
		}
		self[sp.Name] += (sp.End - sp.Start) - covered(ivs)
	}
	return self
}

// covered is the total length of the union of intervals.
func covered(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, lo, hi float64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			lo, hi, open = iv[0], iv[1], true
		case iv[0] > hi:
			total += hi - lo
			lo, hi = iv[0], iv[1]
		case iv[1] > hi:
			hi = iv[1]
		}
	}
	if open {
		total += hi - lo
	}
	return total
}
