package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

func TestSolveBatchMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var instances []graph.Instance
	for len(instances) < 8 {
		ins := randInstance(r, 6+r.Intn(4), 3, 10, 10, 2)
		feas, err := CheckFeasible(withBigBound(ins))
		if err != nil || feas.MaxDisjoint < ins.K {
			continue
		}
		ins.Bound = feas.MinDelay + r.Int63n(12)
		instances = append(instances, ins)
	}
	// Sequential reference.
	want := make([]Result, len(instances))
	for i, ins := range instances {
		res, err := Solve(ins, Options{})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 3, 16} {
		items := SolveBatchCtx(context.Background(), instances, Options{}, workers)
		if len(items) != len(instances) {
			t.Fatalf("workers=%d: %d items", workers, len(items))
		}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, it.Err)
			}
			if it.Index != i {
				t.Fatalf("workers=%d: item %d has index %d", workers, i, it.Index)
			}
			if it.Result.Cost != want[i].Cost || it.Result.Delay != want[i].Delay {
				t.Fatalf("workers=%d item %d: (%d,%d) want (%d,%d)",
					workers, i, it.Result.Cost, it.Result.Delay, want[i].Cost, want[i].Delay)
			}
		}
	}
}

func withBigBound(ins graph.Instance) graph.Instance {
	ins.Bound = 1 << 40
	return ins
}

func TestSolveBatchEmptyAndErrors(t *testing.T) {
	if items := SolveBatchCtx(context.Background(), nil, Options{}, 4); len(items) != 0 {
		t.Fatal("empty batch")
	}
	// A batch mixing feasible and infeasible instances reports per-item
	// errors without aborting.
	ok := tradeoff(30)
	bad := tradeoff(3)
	items := SolveBatchCtx(context.Background(), []graph.Instance{ok, bad, ok}, Options{}, 2)
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("feasible items errored: %v %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("infeasible item did not error")
	}
}

// TestSolveSweepMonotone solves one topology across a set of delay bounds,
// the cost/delay tradeoff curve an operator tunes an SLA against. The
// tightest bound forces the expensive pair (cost 13); D=22 still returns 13
// where OPT=12, within the certified 2× factor; the loosest bound admits
// the cheapest pair (cost 5).
func TestSolveSweepMonotone(t *testing.T) {
	want := map[int64]int64{7: 13, 22: 13, 30: 5}
	var prevCost int64 = 1 << 60
	for _, b := range []int64{7, 10, 15, 20, 22, 25, 30} {
		res, err := SolveCtx(context.Background(), tradeoff(b), Options{})
		if err != nil {
			t.Fatalf("bound %d: %v", b, err)
		}
		if res.Delay > b {
			t.Fatalf("bound %d violated: delay %d", b, res.Delay)
		}
		// Looser bounds can only help: cost should be non-increasing up to
		// the 2× approximation wiggle; assert the certified lower bound
		// never exceeds the previous cost (a weak but sound monotonicity).
		if res.LowerBound > prevCost {
			t.Fatalf("lower bound %d exceeds previous cost %d", res.LowerBound, prevCost)
		}
		prevCost = res.Cost
		if c, ok := want[b]; ok && res.Cost != c {
			t.Fatalf("bound %d: cost %d, want %d", b, res.Cost, c)
		}
	}
}

// TestSolveBatchCtxCancellation: a cancelled context stops unstarted items
// and tags them with the context's error, while already-delivered results
// stay intact.
func TestSolveBatchCtxCancellation(t *testing.T) {
	ins := tradeoff(10)
	instances := make([]graph.Instance, 16)
	for i := range instances {
		cp := ins
		cp.Bound = int64(7 + i)
		instances[i] = cp
	}
	// Already-cancelled context: nothing runs, every item carries the error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := SolveBatchCtx(ctx, instances, Options{}, 4)
	if len(items) != len(instances) {
		t.Fatalf("%d items", len(items))
	}
	for i, it := range items {
		if !errors.Is(it.Err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, it.Err)
		}
		if it.Index != i {
			t.Fatalf("item %d tagged index %d", i, it.Index)
		}
	}
	// Live context: every item solves.
	for i, it := range SolveBatchCtx(context.Background(), instances, Options{}, 4) {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
	}
}

// TestSolveBatchConcurrencySafety hammers SolveBatchCtx under the race
// detector: all instances share one underlying graph.
func TestSolveBatchConcurrencySafety(t *testing.T) {
	ins := tradeoff(10)
	instances := make([]graph.Instance, 24)
	for i := range instances {
		cp := ins
		cp.Bound = int64(7 + i)
		instances[i] = cp
	}
	var solved atomic.Int32
	items := SolveBatchCtx(context.Background(), instances, Options{}, 8)
	for _, it := range items {
		if it.Err == nil {
			solved.Add(1)
		}
	}
	if solved.Load() != 24 {
		t.Fatalf("solved %d/24", solved.Load())
	}
}
