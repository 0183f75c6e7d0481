package serve

import (
	"errors"
	"sync"
)

// Sentinel admission errors, mapped to HTTP statuses by the server.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (429 backpressure).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShuttingDown rejects submissions after graceful shutdown began.
	ErrShuttingDown = errors.New("serve: server is shutting down")
)

// Queue is the bounded admission queue between the HTTP handlers and the
// worker pool. It wraps an admitter (FIFO or PAR-BS batch scheduling) with
// capacity, arrival stamping, and drain-on-close semantics.
type Queue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	adm      admitter
	capacity int
	arrival  int64
	closed   bool
}

func newQueue(adm admitter, capacity int) *Queue {
	q := &Queue{adm: adm, capacity: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Add admits a job, stamping its arrival order.
func (q *Queue) Add(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrShuttingDown
	}
	if q.adm.size() >= q.capacity {
		return ErrQueueFull
	}
	q.arrival++
	j.arrival = q.arrival
	q.adm.add(j)
	q.cond.Signal()
	return nil
}

// take blocks until a job is available and returns it, or returns nil once
// the queue is closed and fully drained. Workers pull under the lock, the
// same shape as sim.ParallelFor.
func (q *Queue) take() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if j := q.adm.next(); j != nil {
			return j
		}
		if q.closed {
			return nil
		}
		q.cond.Wait()
	}
}

// close stops admissions and wakes all workers to drain what remains.
func (q *Queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Depth reports the number of jobs waiting for a worker.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.adm.size()
}

// Batches reports the total admission batches formed so far.
func (q *Queue) Batches() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.adm.batches()
}

// pool runs queued jobs on a fixed set of workers until the queue closes
// and drains. Graceful shutdown is: queue.close(), then pool.wait() — every
// accepted job still executes (under a canceled base context jobs fail
// fast, which is the hard-abort path).
type pool struct {
	wg sync.WaitGroup
}

func startPool(workers int, q *Queue, run func(*Job)) *pool {
	p := &pool{}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				j := q.take()
				if j == nil {
					return
				}
				run(j)
			}
		}()
	}
	return p
}

// wait blocks until all workers exit.
func (p *pool) wait() { p.wg.Wait() }
