package sim

import (
	"runtime"
	"sync"
)

// The shard pool is the parallel executor of RunIndependent: W worker
// goroutines advance the channel shards through one DRAM cycle at a time
// with a barrier per cycle — the classic conservative-window parallel
// discrete-event scheme, with a one-cycle window (cores and controllers
// interact with one cycle of latency, so a cycle's shard steps are
// mutually independent by construction).
//
// Determinism does not depend on scheduling: shard j is owned by worker
// j mod W for the whole run, shards share no mutable state within a cycle,
// and everything that crosses shards (completions, command-log events,
// telemetry, traces) buffers shard-locally and is merged on the run
// goroutine in channel order after the barrier. The barrier's WaitGroup
// gives the run goroutine a happens-before edge over every shard's state,
// and the next start send hands it back.

// WorkerCount resolves a Parallelism knob against the number of units of
// work it spreads (channel shards, or a job's phases in ParallelFor):
// 0 means GOMAXPROCS, 1 means inline sequential execution, and more
// workers than units is clamped (extra workers would only idle).
func WorkerCount(parallelism, units int) int {
	w := parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > units {
		w = units
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shardPool runs chanShard.step across a fixed set of worker goroutines.
type shardPool struct {
	shards []*chanShard
	// start[w] carries the cycle number that releases worker w; cap 1 so
	// the run goroutine never blocks fanning out.
	start []chan int64
	// wg is the per-cycle barrier: armed to W before fan-out, released by
	// each worker after its shards step.
	wg sync.WaitGroup
	// quit, once closed, retires the workers; done joins them.
	quit    chan struct{}
	done    sync.WaitGroup
	stopped bool
}

func newShardPool(shards []*chanShard, workers int) *shardPool {
	p := &shardPool{
		shards: shards,
		start:  make([]chan int64, workers),
		quit:   make(chan struct{}),
	}
	for w := range p.start {
		p.start[w] = make(chan int64, 1)
		p.done.Add(1)
		go p.worker(w)
	}
	return p
}

// worker advances shards w, w+W, w+2W, … each cycle it is released for.
func (p *shardPool) worker(w int) {
	defer p.done.Done()
	stride := len(p.start)
	for {
		select {
		case <-p.quit:
			return
		case dc := <-p.start[w]:
			for j := w; j < len(p.shards); j += stride {
				p.shards[j].step(dc)
			}
			p.wg.Done()
		}
	}
}

// cycle steps every shard through DRAM cycle dc and returns after all have
// finished — the per-cycle barrier.
func (p *shardPool) cycle(dc int64) {
	p.wg.Add(len(p.start))
	for _, ch := range p.start {
		ch <- dc
	}
	p.wg.Wait()
}

// stop retires the workers and joins them; idempotent. RunIndependent
// defers it so no goroutine outlives the run (pinned by the leak test).
func (p *shardPool) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	close(p.quit)
	p.done.Wait()
}
