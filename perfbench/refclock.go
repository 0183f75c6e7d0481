package main

import (
	"container/heap"
	"fmt"
	"time"
)

// The host this benchmark was built on changes speed in phases that slow
// every computation, though not all alike: within one 75-second run the
// median csi4-parbs op of successive 10-op windows went from 170 to 305
// ms. Divided by the median slice of a fixed event-queue kernel timed
// between the same ops, the windows spread 5% (interquartile, over the
// median) where the op walls spread 24%; kernels of table lookups or
// sorting tracked the host less well (10-18%).
//
// So every untraced run interleaves slices of that reference kernel with
// its work and reports its end-to-end timings in "ref", multiples of a
// reference slice's time in the same run: a throughput divides its wall,
// and a latency percentile itself, by the run's mean slice. The kernel is
// the benchmark's own code, not the program's, so a change to the program
// moves a ratio one for one, while a change of host speed moves both
// sides. The wall-clock values are printed beside them.

// Reference slice: refEvents pending events in a binary heap, refSteps
// times popping the earliest and pushing a successor at a random later
// time (about 35 ms on a 2-vCPU Xeon host).
const (
	refEvents = 8192
	refSteps  = 1 << 17
)

type refEvent struct {
	at   uint64
	kind int
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// RefClock runs the reference kernel and keeps each slice's wall time.
type RefClock struct {
	queue refQueue
	sink  uint64
	// Slices holds each slice's wall time in milliseconds.
	Slices Sample
}

func newRefClock() *RefClock {
	return &RefClock{queue: make(refQueue, 0, refEvents)}
}

// Slice runs one reference slice, the same work every time.
func (r *RefClock) Slice() {
	t0 := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	q := &r.queue
	*q = (*q)[:0]
	for i := 0; i < refEvents; i++ {
		v := next()
		heap.Push(q, refEvent{at: v % 1000, kind: int(v>>60) & 3})
	}
	var acc uint64
	for i := 0; i < refSteps; i++ {
		e := heap.Pop(q).(refEvent)
		v := next()
		switch e.kind {
		case 0:
			acc += e.at
		case 1:
			acc ^= v
		}
		heap.Push(q, refEvent{at: e.at + 1 + v%64, kind: int(v>>60) & 3})
	}
	r.sink += acc
	r.Slices = append(r.Slices, msOf(time.Since(t0)))
}

// Mean is the mean slice in milliseconds, the unit of a throughput.
func (r *RefClock) Mean() float64 { return r.Slices.Sum() / float64(len(r.Slices)) }

// Ratio expresses the p-th percentile of a latency sample in ref: divided
// by the mean slice, so that a sample's p90 never reads below its p50.
func (r *RefClock) Ratio(s Sample, p float64) float64 {
	v, _ := s.Percentile(p)
	return v / r.Mean()
}

// Note describes the slices for the printed table.
func (r *RefClock) Note() string {
	p50, n := r.Slices.Percentile(50)
	p90, _ := r.Slices.Percentile(90)
	return fmt.Sprintf("%d reference slices: mean %.3f ms, p50 %.3f ms, p90 %.3f ms", n, r.Mean(), p50, p90)
}
