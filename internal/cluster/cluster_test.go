package cluster

import (
	"math"
	"testing"
)

func newTestTable(t *testing.T, opt Options) *Table {
	t.Helper()
	tab, err := NewTable([]string{"a:1", "b:2", "c:3"}, "a:1", opt)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableValidation(t *testing.T) {
	cases := []struct {
		addrs []string
		self  string
	}{
		{nil, "a"},
		{[]string{"a", "a"}, "a"},
		{[]string{"a", ""}, "a"},
		{[]string{"a", "b"}, "z"},
	}
	for _, c := range cases {
		if _, err := NewTable(c.addrs, c.self, Options{}); err == nil {
			t.Errorf("NewTable(%v, %q): want error", c.addrs, c.self)
		}
	}
}

// TestOwnerDeterministicAndBalanced: every key has exactly one owner, the
// assignment is stable across calls and across tables built from the same
// list, and no member owns everything.
func TestOwnerDeterministicAndBalanced(t *testing.T) {
	t1 := newTestTable(t, Options{})
	t2, err := NewTable([]string{"a:1", "b:2", "c:3"}, "b:2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for key := uint64(0); key < 3000; key++ {
		o1, _ := t1.Owner(mix64(key))
		o2, _ := t2.Owner(mix64(key))
		if o1 != o2 {
			t.Fatalf("key %d: tables disagree on owner: %q vs %q", key, o1, o2)
		}
		counts[o1]++
	}
	for _, addr := range []string{"a:1", "b:2", "c:3"} {
		if counts[addr] < 500 {
			t.Fatalf("member %s owns only %d/3000 keys; ring is unbalanced: %v", addr, counts[addr], counts)
		}
	}
}

// TestOwnerEjectionRemapsMinimally: ejecting one member must remap only the
// keys it owned, and readmission must restore the original assignment
// exactly — the consistent-hashing property failover relies on.
func TestOwnerEjectionRemapsMinimally(t *testing.T) {
	tab := newTestTable(t, Options{FailThreshold: 1})
	before := make(map[uint64]string)
	for key := uint64(0); key < 2000; key++ {
		before[key], _ = tab.Owner(key)
	}
	if ejected := tab.Fail("c:3", 10); !ejected {
		t.Fatal("threshold-1 failure should eject")
	}
	for key := uint64(0); key < 2000; key++ {
		after, _ := tab.Owner(key)
		if after == "c:3" {
			t.Fatalf("key %d still owned by the ejected member", key)
		}
		if before[key] != "c:3" && after != before[key] {
			t.Fatalf("key %d moved from %q to %q though its owner never failed", key, before[key], after)
		}
	}
	if readmitted := tab.Succeed("c:3"); !readmitted {
		t.Fatal("Succeed on an ejected peer should readmit")
	}
	for key := uint64(0); key < 2000; key++ {
		if after, _ := tab.Owner(key); after != before[key] {
			t.Fatalf("key %d not restored to %q after readmission (got %q)", key, before[key], after)
		}
	}
}

func TestHealthTransitions(t *testing.T) {
	tab := newTestTable(t, Options{FailThreshold: 3, CooldownNs: 100})
	if h := tab.Health("b:2"); h != Up {
		t.Fatalf("initial health %v", h)
	}
	if tab.Fail("b:2", 1) {
		t.Fatal("first failure must not eject")
	}
	if h := tab.Health("b:2"); h != Suspect {
		t.Fatalf("after 1 failure: %v, want suspect", h)
	}
	// A success between failures resets the streak.
	tab.Succeed("b:2")
	if h := tab.Health("b:2"); h != Up {
		t.Fatalf("after success: %v, want up", h)
	}
	tab.Fail("b:2", 2)
	tab.Fail("b:2", 3)
	if !tab.Fail("b:2", 4) {
		t.Fatal("third consecutive failure should eject")
	}
	if h := tab.Health("b:2"); h != Ejected {
		t.Fatalf("after threshold: %v, want ejected", h)
	}
	// Ejected peers stay off the probe list until the cooldown lapses.
	if got := tab.ProbeTargets(50); len(got) != 0 {
		t.Fatalf("probe targets before cooldown: %v", got)
	}
	if got := tab.ProbeTargets(104); len(got) != 1 || got[0] != "b:2" {
		t.Fatalf("probe targets after cooldown: %v", got)
	}
	// A failed probe re-arms the cooldown instead of double-ejecting.
	if tab.Fail("b:2", 200) {
		t.Fatal("failing an already-ejected peer must not re-eject")
	}
	if got := tab.ProbeTargets(250); len(got) != 0 {
		t.Fatalf("cooldown not re-armed by failed probe: %v", got)
	}
	if got := tab.ProbeTargets(300); len(got) != 1 {
		t.Fatalf("probe targets after re-armed cooldown: %v", got)
	}
}

// TestSelfNeverEjected: failures recorded against self are ignored, and a
// node whose every peer is ejected owns all keys itself.
func TestSelfNeverEjected(t *testing.T) {
	tab := newTestTable(t, Options{FailThreshold: 1})
	tab.Fail("a:1", 1)
	if h := tab.Health("a:1"); h != Up {
		t.Fatalf("self health after Fail: %v, want up", h)
	}
	tab.Fail("b:2", 1)
	tab.Fail("c:3", 1)
	for key := uint64(0); key < 100; key++ {
		owner, isSelf := tab.Owner(key)
		if owner != "a:1" || !isSelf {
			t.Fatalf("fully partitioned node must own key %d itself (got %q)", key, owner)
		}
	}
}

func TestSnapshot(t *testing.T) {
	tab := newTestTable(t, Options{FailThreshold: 1})
	tab.Fail("c:3", 42)
	snap := tab.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot rows = %d", len(snap))
	}
	if !snap[0].Self || snap[0].Addr != "a:1" || snap[0].Health != "up" {
		t.Fatalf("row 0 = %+v", snap[0])
	}
	if snap[2].Health != "ejected" || snap[2].EjectedAtNs != 42 {
		t.Fatalf("row 2 = %+v", snap[2])
	}
	if tab.Self() != "a:1" || tab.Size() != 3 {
		t.Fatalf("self/size = %q/%d", tab.Self(), tab.Size())
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	b1 := NewBackoff(100, 1000, 7)
	b2 := NewBackoff(100, 1000, 7)
	ceil := int64(100)
	for attempt := 0; attempt < 8; attempt++ {
		d1 := b1.Delay(attempt)
		d2 := b2.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %d vs %d", attempt, d1, d2)
		}
		if d1 < ceil/2 || d1 > ceil {
			t.Fatalf("attempt %d: delay %d outside [%d, %d]", attempt, d1, ceil/2, ceil)
		}
		if ceil < 1000 {
			ceil *= 2
		}
		if ceil > 1000 {
			ceil = 1000
		}
	}
}

func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 1)
	if d := b.Delay(0); d < DefaultBackoffBaseNs/2 || d > DefaultBackoffBaseNs {
		t.Fatalf("default base delay %d", d)
	}
	for attempt := 0; attempt < 30; attempt++ {
		if d := b.Delay(attempt); d > DefaultBackoffMaxNs {
			t.Fatalf("attempt %d: delay %d exceeds cap", attempt, d)
		}
	}
}

func TestBudget(t *testing.T) {
	unlimited := NewBudget(0, 0)
	if !unlimited.Allows(1<<40, 1<<40, 1<<40) {
		t.Fatal("unlimited budget should allow anything")
	}
	bu := NewBudget(1000, 500) // deadline at 1500
	if got := bu.Remaining(1200); got != 300 {
		t.Fatalf("remaining = %d, want 300", got)
	}
	if got := bu.Remaining(2000); got != 0 {
		t.Fatalf("expired remaining = %d, want 0", got)
	}
	if !bu.Allows(1200, 100, 100) {
		t.Fatal("100ns sleep + 100ns reserve fits in 300ns")
	}
	if bu.Allows(1200, 250, 100) {
		t.Fatal("250ns sleep + 100ns reserve must not fit in 300ns")
	}
	// A deadline past the end of the clock is no deadline, not one that
	// wrapped into the past.
	if far := NewBudget(1000, math.MaxInt64); far.Remaining(1<<40) != 1<<62 {
		t.Fatalf("remaining = %d, want the unlimited sentinel", far.Remaining(1<<40))
	}
}
