package exp

import (
	"context"
	"fmt"

	"repro/internal/auxgraph"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/residual"
	"repro/internal/shortest"
)

// RunE1 measures approximation quality against the exact optimum on small
// random instances: the paper's Lemma 3 claims delay ≤ D and cost ≤ 2·OPT;
// Theorem 4 relaxes both by ε.
func RunE1(cfg Config) (*Table, error) {
	t := NewTable("E1: approximation quality vs exact optimum",
		"n", "k", "slack", "inst", "mean c/OPT", "max c/OPT", "≤2·OPT", "delay ok", "exact hits")
	sizes := []int{7, 9}
	if !cfg.Quick {
		sizes = []int{7, 9, 11}
	}
	for _, n := range sizes {
		for _, k := range []int{2, 3} {
			for _, slack := range []float64{1.3, 2.0} {
				var ratios []float64
				okDelay, okCost, exactHits, count := 0, 0, 0, 0
				for seed := int64(0); seed < int64(cfg.seeds()); seed++ {
					mk := func(s int64) graph.Instance {
						ins := gen.ER(s, n, 0.30, gen.DefaultWeights())
						ins.K = k
						return ins
					}
					ins, ok := boundedInstance(mk, seed+int64(n*100+k*10), slack)
					if !ok {
						continue
					}
					opt, err := exact.BruteForce(ins, 90)
					if err != nil {
						continue
					}
					res, err := core.Solve(ins, core.Options{})
					if err != nil {
						return nil, fmt.Errorf("E1: solve: %w", err)
					}
					count++
					r := ratio(res.Cost, opt.Cost)
					ratios = append(ratios, r)
					if res.Delay <= ins.Bound {
						okDelay++
					}
					if res.Cost <= 2*opt.Cost {
						okCost++
					}
					if res.Cost == opt.Cost {
						exactHits++
					}
				}
				if count == 0 {
					continue
				}
				t.Add(n, k, slack, count, Mean(ratios), Max(ratios),
					fmt.Sprintf("%d/%d", okCost, count),
					fmt.Sprintf("%d/%d", okDelay, count),
					fmt.Sprintf("%d/%d", exactHits, count))
			}
		}
	}
	t.Note("claim under test: cost ≤ 2·OPT and delay ≤ D on every feasible instance (Lemma 3)")
	return t, nil
}

// RunE2 verifies the Lemma 5 phase-1 invariant φ = delay/D + cost/C_LP ≤ 2
// on larger instances where brute force is impossible.
func RunE2(cfg Config) (*Table, error) {
	t := NewTable("E2: phase-1 invariant (Lemma 5)",
		"n", "k", "inst", "mean φ", "max φ", "φ ≤ 2", "mean λ-iters")
	sizes := []int{20, 40}
	if !cfg.Quick {
		sizes = []int{20, 40, 60}
	}
	for _, n := range sizes {
		for _, k := range []int{2, 4} {
			var phis, iters []float64
			okPhi, count := 0, 0
			for seed := int64(0); seed < int64(cfg.seeds()); seed++ {
				mk := func(s int64) graph.Instance {
					ins := gen.ER(s, n, 0.15, gen.DefaultWeights())
					ins.K = k
					return ins
				}
				ins, ok := boundedInstance(mk, seed+int64(n*37+k), 1.15)
				if !ok {
					continue
				}
				p1, err := core.Phase1(ins)
				if err != nil {
					return nil, fmt.Errorf("E2: phase1: %w", err)
				}
				count++
				iters = append(iters, float64(p1.Stats.LambdaIterations))
				if p1.Exact {
					phis = append(phis, 1+float64(p1.Lo.Delay(ins.G))/float64(ins.Bound))
					okPhi++
					continue
				}
				chosen := p1.ChooseByPotential(ins.G, ins.Bound)
				clp, _ := p1.CLP.Float64()
				phi := float64(chosen.Cost(ins.G))/clp +
					float64(chosen.Delay(ins.G))/float64(ins.Bound)
				phis = append(phis, phi)
				if phi <= 2+1e-9 {
					okPhi++
				}
			}
			if count == 0 {
				continue
			}
			t.Add(n, k, count, Mean(phis), Max(phis),
				fmt.Sprintf("%d/%d", okPhi, count), Mean(iters))
		}
	}
	t.Note("φ ≤ 2 is exactly Lemma 5: delay ≤ αD and cost ≤ (2−α)·C_OPT for some α ∈ [0,2]")
	return t, nil
}

// RunE3 reproduces the Figure 1 pathology: without Definition 10's cost
// cap an adversarially-compliant cycle selection inflates cost; with the
// cap the algorithm stays within 2·OPT for every D.
func RunE3(cfg Config) (*Table, error) {
	t := NewTable("E3: Figure 1 pathology (cost cap ablation)",
		"D", "OPT", "capped c/OPT", "uncapped+adv c/OPT", "capped delay ok", "uncapped delay ok")
	ds := []int64{2, 4, 8, 16}
	if !cfg.Quick {
		ds = []int64{2, 4, 8, 16, 32, 64}
	}
	const scaleC = 10
	for _, d := range ds {
		ins, opt, err := gen.Figure1(scaleC, d)
		if err != nil {
			return nil, fmt.Errorf("E3: %w", err)
		}
		capped, err := core.Solve(ins, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E3: capped solve: %w", err)
		}
		uncapped, err := core.Solve(ins, core.Options{Figure1Ablation: true})
		if err != nil {
			return nil, fmt.Errorf("E3: uncapped solve: %w", err)
		}
		t.Add(d, opt, ratio(capped.Cost, opt), ratio(uncapped.Cost, opt),
			capped.Delay <= ins.Bound, uncapped.Delay <= ins.Bound)
	}
	t.Note("the uncapped arm reproduces the paper's Figure 1 blow-up exactly: cost (D+1)·OPT−ε, i.e. ratio D+0.9 at OPT=10")
	t.Note("the uncapped arm also disables the LP reference bound and the phase-1 safety net — the ingredients Definition 10's cost constraint replaces")
	return t, nil
}

// RunE4 validates Lemma 15 on the Figure 2 construction and random
// residual graphs: projecting an H-walk preserves cost/delay exactly, and
// the layered sizes match Algorithm 2.
func RunE4(cfg Config) (*Table, error) {
	t := NewTable("E4: auxiliary graph construction (Algorithm 2 / Lemma 15)",
		"graph", "kind", "B", "H nodes", "H edges", "roundtrips", "mismatches")
	// Figure 2 construction exactly as the paper stages it: G, then G̃ wrt
	// the path s·x·y·z·t, then H.
	ins, pathEdges, budget := gen.Figure2()
	rg := residual.Build(ins.G, graph.NewEdgeSet(pathEdges...))
	for _, kind := range []auxgraph.Kind{auxgraph.Plus, auxgraph.Minus, auxgraph.TwoSided} {
		a := auxgraph.Build(rg.View(), ins.S, budget, kind)
		rt, mm := roundtripCount(a)
		t.Add("figure2", kind.String(), budget, a.H.NumNodes(), a.H.NumEdges(), rt, mm)
	}
	// Random residual graphs.
	for seed := int64(0); seed < int64(cfg.seeds()); seed++ {
		base := gen.ER(seed+500, 8, 0.3, gen.Weights{MaxCost: 3, MaxDelay: 6, Correlation: -0.5})
		sol := graph.NewEdgeSet()
		for _, e := range base.G.EdgesView() {
			if e.ID%3 == 0 {
				sol.Add(e.ID)
			}
		}
		rrg := residual.Build(base.G, sol)
		// Aggregate over every reversed-edge endpoint as the anchor: these
		// are the vertices the bicameral search actually roots at.
		var rt, mm, nodes, edges int
		for _, v := range rrg.ReversedSeeds() {
			a := auxgraph.Build(rrg.View(), v, 6, auxgraph.TwoSided)
			r, m := roundtripCount(a)
			rt += r
			mm += m
			nodes, edges = a.H.NumNodes(), a.H.NumEdges()
		}
		t.Add(fmt.Sprintf("er-seed%d", seed), "H±", 6, nodes, edges, rt, mm)
	}
	t.Note("roundtrips: walks projected from H whose measured (cost, delay) matched the layer arithmetic; mismatches must be 0")
	return t, nil
}

// roundtripCount exercises Lemma 15: for every layer copy of the anchor
// reachable without negative cycles, project the walk and compare.
func roundtripCount(a *auxgraph.Aux) (roundtrips, mismatches int) {
	base := a.Base
	tr, hCyc, ok := shortest.BellmanFordCSRInto(shortest.NewWorkspace(a.H.NumNodes()), a.H, a.Start(), shortest.LinDelay)
	if !ok {
		// A negative-delay cycle in H: its projection must preserve both
		// measures exactly (H real edges carry the base weights, wraps 0).
		var c, d int64
		for _, cyc := range a.Project(hCyc) {
			c += base.TotalCost(cyc.Edges)
			d += base.TotalDelay(cyc.Edges)
		}
		roundtrips++
		if c != a.H.TotalCost(hCyc.Edges) || d != a.H.TotalDelay(hCyc.Edges) {
			mismatches++
		}
		return roundtrips, mismatches
	}
	for l := int64(-a.B); l <= a.B; l++ {
		node, valid := a.LayerNode(a.V, l)
		if !valid || node == a.Start() || tr.Dist[node] == shortest.Inf {
			continue
		}
		p, _ := tr.PathTo(a.H, node)
		cycles := a.ProjectWalk(p.Edges)
		var c, d int64
		for _, cyc := range cycles {
			c += base.TotalCost(cyc.Edges)
			d += base.TotalDelay(cyc.Edges)
		}
		roundtrips++
		wantCost := l - a.StartLayer()
		if c != wantCost || d != tr.Dist[node] {
			mismatches++
		}
	}
	return roundtrips, mismatches
}

// RunE5 sweeps ε for SolveScaledCtx (Theorem 4) against the pseudo-polynomial
// Solve, reporting quality and work.
func RunE5(cfg Config) (*Table, error) {
	t := NewTable("E5: scaling tradeoff (Theorem 4)",
		"eps", "inst", "mean c/c_pseudo", "max delay/D", "mean time", "pseudo time")
	n := 14
	if cfg.Quick {
		n = 10
	}
	epss := []float64{1.0, 0.5, 0.25, 0.1}
	type sample struct {
		ins    graph.Instance
		pseudo core.Result
		ptime  float64
	}
	var samples []sample
	for seed := int64(0); seed < int64(cfg.seeds()); seed++ {
		mk := func(s int64) graph.Instance {
			ins := gen.ER(s, n, 0.25, gen.Weights{MaxCost: 50, MaxDelay: 50, Correlation: -0.8})
			ins.K = 2
			return ins
		}
		ins, ok := boundedInstance(mk, seed+9000, 1.4)
		if !ok {
			continue
		}
		var res core.Result
		dur, err := measure(func() error {
			var e error
			res, e = core.Solve(ins, core.Options{})
			return e
		})
		if err != nil {
			return nil, fmt.Errorf("E5: pseudo solve: %w", err)
		}
		samples = append(samples, sample{ins, res, dur.Seconds()})
	}
	for _, eps := range epss {
		var ratios, dRatios, times []float64
		var ptimes []float64
		for _, s := range samples {
			var res core.Result
			dur, err := measure(func() error {
				var e error
				res, e = core.SolveScaledCtx(context.Background(), s.ins, eps, eps, core.Options{})
				return e
			})
			if err != nil {
				return nil, fmt.Errorf("E5: scaled solve: %w", err)
			}
			ratios = append(ratios, ratio(res.Cost, s.pseudo.Cost))
			dRatios = append(dRatios, float64(res.Delay)/float64(s.ins.Bound))
			times = append(times, dur.Seconds())
			ptimes = append(ptimes, s.ptime)
		}
		if len(ratios) == 0 {
			continue
		}
		t.Add(eps, len(ratios), Mean(ratios), Max(dRatios),
			fmtDurationSec(Mean(times)), fmtDurationSec(Mean(ptimes)))
	}
	t.Note("delay/D may exceed 1 by up to ε (Theorem 4's (1+ε₁) factor)")
	return t, nil
}

func fmtDurationSec(s float64) string {
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
