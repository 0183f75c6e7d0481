package sim

import (
	"context"
	"errors"
	"testing"
)

// TestParallelForOneWorkerRunsInOrder: Parallelism 1 is the sequential
// path — every index, in order.
func TestParallelForOneWorkerRunsInOrder(t *testing.T) {
	var order []int
	if err := ParallelFor(context.Background(), 1, 5, func(_ context.Context, i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order %v, want 0..4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 indexes", len(order))
	}
}

// TestParallelForFailureCancelsSiblings: the first failing call cancels the
// context its siblings run under, and ParallelFor returns that failure —
// not a sibling's resulting context.Canceled.
func TestParallelForFailureCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	err := ParallelFor(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			return boom
		}
		<-ctx.Done() // index 0 runs until its sibling's failure cancels it
		return ctx.Err()
	})
	if !errors.Is(err, boom) || errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want the failing call's own error", err)
	}
}

// TestParallelForPanicReachesCaller: a panic on a worker goroutine is
// re-raised on the caller after the pool drains, so callers' recover
// (serve's per-job isolation) still sees it.
func TestParallelForPanicReachesCaller(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom" {
			t.Errorf("recovered %v, want the worker's panic", p)
		}
	}()
	_ = ParallelFor(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			panic("boom")
		}
		<-ctx.Done()
		return nil
	})
	t.Error("ParallelFor returned instead of panicking")
}
