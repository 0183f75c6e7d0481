package sim

import (
	"context"
	"runtime"
	"sync"
)

// workerCount resolves a parallelism knob against the number of units of
// work it spreads: 0 means GOMAXPROCS, 1 means inline sequential
// execution, and more workers than units is clamped (extra workers would
// only idle).
func workerCount(parallelism, units int) int {
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

// ParallelFor runs fn(ctx, i) for every i in [0,n) on workerCount(parallelism,
// n) goroutines, the calling goroutine among them, and returns the first
// error. Workers pull the next index under a lock, so with one worker every
// index runs in order on the caller, and a heavy task queued first starts
// first.
//
// ctx is checked before each pull: cancellation stops scheduling new indexes
// while in-flight calls finish (simulations observe their own context at
// their next checkpoint). The ctx handed to fn is derived from ctx and is
// also canceled by the first failing call, so its siblings can abort early.
// That failure is recorded before the siblings are canceled, so the error
// returned is the failing call's own, never a sibling's resulting
// cancellation; with no failure, a canceled ctx yields ctx.Err(). A panic in
// fn stops scheduling like an error and is re-raised on the calling
// goroutine once every worker has returned.
func ParallelFor(ctx context.Context, parallelism, n int, fn func(ctx context.Context, i int) error) error {
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		next     int
		err      error
		panicked bool
		panicVal any
	)
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				if !panicked {
					panicked, panicVal = true, p
				}
				mu.Unlock()
				cancel()
			}
		}()
		for {
			mu.Lock()
			if next >= n || tctx.Err() != nil {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			if e := fn(tctx, i); e != nil {
				mu.Lock()
				if err == nil {
					err = e
					cancel()
				}
				mu.Unlock()
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := workerCount(parallelism, n); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	if err == nil {
		err = ctx.Err()
	}
	return err
}
