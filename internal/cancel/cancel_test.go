package cancel

import (
	"context"
	"testing"
)

func TestNilIsFreeNoOp(t *testing.T) {
	var c *Canceller
	for i := 0; i < 10; i++ {
		if c.Poll() || c.Check() || c.Stopped() {
			t.Fatal("nil Canceller reported cancellation")
		}
	}
	c.Trip() // must not panic
	c.Release()
}

func TestBackgroundYieldsNil(t *testing.T) {
	if c := New(context.Background(), 0); c != nil {
		t.Fatal("context.Background must yield a nil Canceller")
	}
	if c := New(nil, 0); c != nil {
		t.Fatal("nil context must yield a nil Canceller")
	}
}

func TestPollStride(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	c := New(ctx, 4)
	defer c.Release()
	for i := 0; i < 16; i++ {
		if c.Poll() {
			t.Fatalf("poll %d fired before cancellation", i)
		}
	}
	cancelFn()
	// The channel is checked only every 4th call; within at most one full
	// stride Poll must observe the cancellation and latch.
	fired := false
	for i := 0; i < 4; i++ {
		if c.Poll() {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("Poll did not observe cancellation within one stride")
	}
	if !c.Poll() || !c.Stopped() || !c.Check() {
		t.Fatal("stopped state did not latch")
	}
}

func TestCheckImmediate(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	c := New(ctx, 1<<20)
	defer c.Release()
	if c.Check() {
		t.Fatal("Check fired before cancellation")
	}
	cancelFn()
	if !c.Check() {
		t.Fatal("Check must observe cancellation immediately, ignoring stride")
	}
}

func TestTrip(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	c := New(ctx, 0)
	defer c.Release()
	c.Trip()
	if !c.Poll() || !c.Stopped() {
		t.Fatal("Trip did not latch stopped")
	}
}

func TestPoolReuseResetsState(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	c := New(ctx, 8)
	c.Trip()
	cancelFn()
	c.Release()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	// Whatever the pool hands back (possibly c) must behave as fresh.
	c2 := New(ctx2, 8)
	defer c2.Release()
	if c2.Stopped() || c2.Poll() {
		t.Fatal("pooled Canceller leaked stopped state")
	}
}
