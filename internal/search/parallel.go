package search

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchResult is one request's outcome within a batch search.
type BatchResult struct {
	Results []Result
	Err     error
}

// clampWorkers resolves a worker-count knob to an effective pool size:
// zero and negative values mean "let the runtime decide" (GOMAXPROCS).
// Both ParallelSearch entry points resolve their knob through this one
// helper, so the <= 0 convention cannot drift between call sites.
func clampWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunPool calls run(i, err) once for every i in [0, n) over at most
// `workers` goroutines: exactly the classic shared-counter worker pool,
// written once so every fan-out (request batches here and in the serving
// handle, the sharded scatter) keeps identical scheduling and the
// single-worker fast path stays goroutine-free. err is ctx.Err() as
// observed when index i was dispatched: non-nil means the slot was
// abandoned behind a cancellation, and run records err instead of
// working. The pool always drains all n indices.
func RunPool(ctx context.Context, n, workers int, run func(i int, err error)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i, ctx.Err())
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i, ctx.Err())
			}
		}()
	}
	wg.Wait()
}

// ParallelSearch evaluates N requests over at most `workers` goroutines
// sharing this engine (workers <= 0 means GOMAXPROCS). Results come back
// positionally — out[i] answers reqs[i] — and each slot is exactly what a
// serial e.Search(ctx, reqs[i]) would have returned, since the engine's
// read path is race-free and every worker borrows its own pooled scratch.
//
// The whole batch is pinned to one snapshot, resolved once up front: even
// with a writer publishing new index versions mid-batch, every request
// observes the same index state, as if the batch had run serially at the
// moment the call was made.
//
// Cancelling ctx abandons the requests still queued: in-flight searches
// stop at their next cooperative check, and every slot that had not
// completed carries ctx.Err(). An already-cancelled ctx touches no
// snapshot and marks every slot.
//
// cmd/dashbench's parallel experiment measures its throughput scaling;
// served batches go through the dash handle's SearchBatch instead.
func (e *Engine) ParallelSearch(ctx context.Context, reqs []Request, workers int) []BatchResult {
	ctx = orBackground(ctx)
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if err := ctx.Err(); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	snap := e.src.Snapshot()
	RunPool(ctx, len(reqs), clampWorkers(workers), func(i int, err error) {
		if err != nil {
			out[i].Err = err // abandoned: queued behind the cancellation
			return
		}
		out[i].Results, out[i].Err = e.SearchSnapshot(ctx, snap, reqs[i])
	})
	return out
}
