package bicameral_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"reflect"
	"testing"

	"repro/internal/bicameral"
	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/residual"
)

// findInputs builds realistic Find inputs the way Solve does: phase 1's
// bound-violating endpoint against the LP-derived parameters. Instances
// where phase 1 is already exact (no cancellation needed) return ok=false.
func findInputs(t *testing.T, ins graph.Instance) (*residual.Graph, bicameral.Params, bool) {
	t.Helper()
	p1, err := core.Phase1(ins)
	if err != nil || p1.Exact {
		return nil, bicameral.Params{}, false
	}
	g := ins.G
	cur := p1.Hi.Edges
	curCost, curDelay := p1.Hi.Cost(g), p1.Hi.Delay(g)
	if curDelay <= ins.Bound {
		return nil, bicameral.Params{}, false
	}
	cRef := p1.CLPCeil
	if cRef <= curCost {
		cRef = curCost + 1
	}
	return residual.Build(g, cur), bicameral.Params{
		DeltaD:  ins.Bound - curDelay,
		DeltaC:  cRef - curCost,
		CostCap: cRef,
	}, true
}

// findInput is one Find call of the corpus below: a residual graph, its
// parameters and the options to search it under.
type findInput struct {
	name string
	rg   *residual.Graph
	p    bicameral.Params
	o    bicameral.Options
}

// findCorpus returns the Find calls of the first rounds of five seeded
// generators, each under three configurations: the default options; the
// cap tightened to CostCap/8 + 1, which drives the search past its
// detection rounds into the enumerator and the per-seed sweeps; and
// Adversarial, which is E3's direct path into the enumerator.
func findCorpus(t *testing.T, rounds int) []findInput {
	t.Helper()
	mks := []func(seed int64) graph.Instance{
		func(s int64) graph.Instance { return gen.ER(s, 14+int(s%10), 0.25, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Grid(s, 4, 4, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Layered(s, 4, 4, 0.6, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Geometric(s, 16, 0.4, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.ISP(s, 7, 2, gen.DefaultWeights()) },
	}
	var out []findInput
	for round := 0; round < rounds; round++ {
		ins := mks[round%len(mks)](int64(round))
		ins.K = 1 + round%2
		bounded, ok := gen.WithBound(ins, 1.1+0.07*float64(round%5))
		if !ok {
			continue
		}
		rg, p, ok := findInputs(t, bounded)
		if !ok {
			continue
		}
		tight := p
		tight.CostCap = p.CostCap/8 + 1
		out = append(out,
			findInput{bounded.Name + "/default", rg, p, bicameral.Options{}},
			findInput{bounded.Name + "/tight-cap", rg, tight, bicameral.Options{}},
			findInput{bounded.Name + "/adversarial", rg, p, bicameral.Options{Adversarial: true}})
	}
	return out
}

// writeCandidate hashes a candidate by value.
func writeCandidate(h hash.Hash, c bicameral.Candidate) {
	fmt.Fprintf(h, "cost=%d delay=%d type=%d cycles=%v;", c.Cost, c.Delay, c.Type, c.Cycles)
}

// TestFindDigest pins Find's output over a fixed corpus: the SHA-256 of
// every (Candidate, Stats, found), with Stats.Fallback hashed by value. The
// search visits seeds and enumeration roots in a fixed order, so any change
// to what it returns, to its counters, or to the relaxed-cap fallback it
// records moves the digest. The 25 rounds make 48 Find calls, 26 enumerator
// runs and 12 non-empty seed sweeps in about 2 s; each further round costs
// up to a few seconds under -race, because a not-found search climbs the
// whole budget ladder.
func TestFindDigest(t *testing.T) {
	const want = "300d3cb93d4c93cd23b442cbb41cf3ebc08b810dd02769de8e0c3dec3aedd0be"
	corpus := findCorpus(t, 25)
	if len(corpus) < 3*10 {
		t.Fatalf("only %d Find inputs; generators too tame", len(corpus))
	}
	h := sha256.New()
	for _, in := range corpus {
		cand, st, found := bicameral.Find(in.rg, in.p, in.o)
		fmt.Fprintf(h, "%s found=%v budgets=%d searches=%d candidates=%d last=%d;",
			in.name, found, st.BudgetsTried, st.Searches, st.Candidates, st.LastBudget)
		writeCandidate(h, cand)
		if st.Fallback != nil {
			writeCandidate(h, *st.Fallback)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("Find digest over %d inputs = %s, want %s", len(corpus), got, want)
	}
}

// TestSolveDigest pins the whole solver's Result, iteration-level stats
// included, on eight seeded ER instances: the SHA-256 of each Result and
// error as printed by %+v.
func TestSolveDigest(t *testing.T) {
	const want = "b573360bf4874b7e4e142873eae4ffd353907a3a886e788a0c4c09d11a39e0d8"
	h := sha256.New()
	solves := 0
	for round := 0; round < 8; round++ {
		ins := gen.ER(int64(100+round), 16, 0.3, gen.DefaultWeights())
		ins.K = 1 + round%2
		bounded, ok := gen.WithBound(ins, 1.15)
		if !ok {
			continue
		}
		res, err := core.Solve(bounded, core.Options{})
		fmt.Fprintf(h, "%s %+v %v;", bounded.Name, res, err)
		solves++
	}
	if solves == 0 {
		t.Fatal("no ER round produced a feasible instance")
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("Solve digest over %d solves = %s, want %s", solves, got, want)
	}
}

// TestCancelledFindLatchesCaller holds Find to bicameral.Options.Cancel's
// contract: a search that a cancellation cut short must leave the caller's
// Canceller stopped, because core reads Stopped() to tell a truncated
// not-found from a complete one. So a Find that returns with Stopped()
// false must equal the uncancelled Find. The context is cancelled before
// every call; the poll stride decides how far each search gets first. Each
// input runs under its own engine and under the minratio engine.
func TestCancelledFindLatchesCaller(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	stop()
	corpus := findCorpus(t, 300)
	latched := map[bicameral.Engine]int{}
	for _, in := range corpus {
		for _, engine := range []bicameral.Engine{in.o.Engine, bicameral.EngineMinRatio} {
			uncancelled := in.o
			uncancelled.Engine = engine
			for stride := 2; stride <= 4096; stride *= 4 {
				c := cancel.New(ctx, stride)
				o := uncancelled
				o.Cancel = c
				cand, st, found := bicameral.Find(in.rg, in.p, o)
				stopped := c.Stopped()
				c.Release()
				if stopped {
					latched[engine]++
					continue
				}
				// An unlatched search made fewer polls than the stride, so the
				// uncancelled one it must equal is as cheap.
				wantCand, wantSt, wantFound := bicameral.Find(in.rg, in.p, uncancelled)
				if found != wantFound || !reflect.DeepEqual(cand, wantCand) || !reflect.DeepEqual(st, wantSt) {
					t.Fatalf("%s, %s engine, stride %d: Find returned with the Canceller not stopped, but differs from the uncancelled Find:\n  got  found=%v %+v %+v\n  want found=%v %+v %+v",
						in.name, engine, stride, found, cand, st, wantFound, wantCand, wantSt)
				}
			}
		}
	}
	for _, engine := range []bicameral.Engine{bicameral.EngineCombinatorial, bicameral.EngineMinRatio} {
		if latched[engine] == 0 {
			t.Errorf("%s engine: no cancellation ever landed", engine)
		}
	}
}
