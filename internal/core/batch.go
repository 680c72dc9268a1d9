package core

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// BatchItem is one result of SolveBatchCtx, tagged with its input index so
// callers can correlate out-of-order completion.
type BatchItem struct {
	Index  int
	Result Result
	Err    error
}

// SolveBatchCtx solves many independent kRSP instances concurrently on a
// bounded worker pool (an SDN controller re-provisioning many tunnel pairs
// is the motivating workload). workers ≤ 0 selects GOMAXPROCS. Results are
// returned in input order; each item carries its own error, so one
// infeasible instance does not abort the batch. Once ctx is done, no
// further instance is started and every unstarted item carries ctx.Err().
// Items already in flight degrade with SolveCtx's anytime semantics (best
// feasible solution so far, Stats.Degraded set, or ErrNoProgress when
// nothing feasible existed yet), so cancellation latency is one poll
// stride, not one solve.
func SolveBatchCtx(ctx context.Context, instances []graph.Instance, opt Options, workers int) []BatchItem {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(instances) {
		workers = len(instances)
	}
	out := make([]BatchItem, len(instances))
	if len(instances) == 0 {
		return out
	}
	// Buffered to the batch size: the producer loop below never blocks on a
	// slow worker, and close() doubles as the only completion signal.
	jobs := make(chan int, len(instances))
	for i := range instances {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					out[i] = BatchItem{Index: i, Err: err}
					continue
				}
				res, err := SolveCtx(ctx, instances[i], opt)
				out[i] = BatchItem{Index: i, Result: res, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
