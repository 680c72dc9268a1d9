// Package residual builds the residual graph G̃ = G_res(P_1..P_k) of
// Definition 6: the input graph with every solution edge replaced by a
// reversed copy carrying negated cost and delay. Unlike the residual graphs
// of [12] and [18], reversed edges keep cost −c(e) (not 0), which is what
// makes both negative costs AND negative delays appear — the situation the
// paper's bicameral-cycle machinery exists to handle.
package residual

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/obs/rec"
)

// Graph is a residual graph plus the bookkeeping to apply residual cycles to
// solutions. Residual edge IDs equal problem edge IDs: residual edge id is
// problem edge id, reversed exactly when id is in the solution.
type Graph struct {
	// Orig is the problem graph G.
	Orig *graph.Digraph
	// view is G̃ as a CSR: packed from Orig, then every solution edge
	// flipped, so its rev bits are exactly the solution membership. Update
	// flips edges in place (no re-pack). Every search runs on it.
	view *graph.CSR
	// sol is the solution edge set the residual was built against.
	sol graph.EdgeSet
	// fr, when non-nil, records one residual-apply flight-recorder event
	// per successful Update (cycle count, edges flipped).
	fr *rec.Recorder
}

// SetRecorder attaches a flight recorder to the residual maintenance path.
// Nil (the default) records nothing and costs nothing.
func (rg *Graph) SetRecorder(r *rec.Recorder) { rg.fr = r }

// Build constructs G̃ with respect to the unit flow `sol` (the edges used
// by the current k disjoint paths): G packed as a CSR, then one Flip — the
// Definition-6 transform (reverse, negate both weights) — per solution edge.
func Build(g *graph.Digraph, sol graph.EdgeSet) *Graph {
	res := &Graph{Orig: g, view: graph.NewCSR(g), sol: sol.Clone()}
	sol.Each(res.view.Flip) // flips commute: set order is irrelevant
	return res
}

// View returns G̃ as a CSR. It tracks every Update in place; treat it as
// read-only.
func (rg *Graph) View() *graph.CSR { return rg.view }

// Update re-points the residual graph at the solution obtained by applying
// the given edge-disjoint residual cycles (the same set a preceding
// ApplyAll consumed): every residual edge on a cycle flips direction and
// sign in place — O(1) per edge — and the tracked solution set is updated
// accordingly. After a successful call the receiver is identical (edges,
// orientation bits, weights) to Build(Orig, newSol), at O(Σ|O_i|) instead
// of O(m), which is what makes per-iteration residual maintenance in the
// cancellation loop cheap. The cycles are validated first; on error the
// receiver is unchanged.
func (rg *Graph) Update(applied []graph.Cycle) error {
	if err := rg.check(applied); err != nil {
		return err
	}
	flipped := int64(0)
	for _, cyc := range applied {
		for _, id := range cyc.Edges {
			if rg.view.Reversed(id) {
				rg.sol.Remove(id)
			} else {
				rg.sol.Add(id)
			}
			rg.view.Flip(id)
			flipped++
		}
	}
	rg.fr.Record(rec.KindResidualApply, int64(len(applied)), flipped, 0, 0)
	return nil
}

// check validates a set of residual cycles: each must be a closed walk of
// G̃, and no residual edge may appear twice across the set. That is all a
// cancellation needs: G̃'s reversed edges are exactly the solution edges,
// so forward edges always enter and reversed edges always leave it.
func (rg *Graph) check(cycles []graph.Cycle) error {
	seen := graph.NewEdgeSet()
	for _, cyc := range cycles {
		if err := cyc.Validate(rg.view, false); err != nil {
			return fmt.Errorf("residual: bad cycle: %w", err)
		}
		for _, id := range cyc.Edges {
			if seen.Has(id) {
				return fmt.Errorf("residual: cycles share residual edge %d", id)
			}
			seen.Add(id)
		}
	}
	return nil
}

// Reversed reports whether residual edge id is a reversed solution edge.
func (rg *Graph) Reversed(id graph.EdgeID) bool { return rg.view.Reversed(id) }

// Solution returns (a copy of) the solution edge set this residual graph
// was built against.
func (rg *Graph) Solution() graph.EdgeSet { return rg.sol.Clone() }

// ReversedSeeds returns the set of vertices incident to reversed edges.
// Any residual cycle with negative total delay or negative total cost must
// traverse at least one reversed edge (original weights are nonnegative),
// so cycle searches need only be seeded at these vertices.
func (rg *Graph) ReversedSeeds() []graph.NodeID {
	v := rg.view
	seen := make([]bool, v.NumNodes())
	var out []graph.NodeID
	for i := 0; i < v.NumEdges(); i++ {
		id := graph.EdgeID(i)
		if !v.Reversed(id) {
			continue
		}
		for _, u := range [2]graph.NodeID{v.Tail(id), v.Head(id)} {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// CycleCost and CycleDelay measure a residual cycle in residual weights
// (reversed edges already negated).
func (rg *Graph) CycleCost(c graph.Cycle) int64  { return rg.view.TotalCost(c.Edges) }
func (rg *Graph) CycleDelay(c graph.Cycle) int64 { return rg.view.TotalDelay(c.Edges) }

// ApplyAll performs cycle cancellation (Proposition 7): it returns the
// edge set of {P_1..P_k} ⊕ O for a set O of edge-disjoint cycles of the
// residual graph. Forward residual edges enter the solution; reversed
// residual edges remove their originals. Residual edges map bijectively to
// original edges, so edge-disjoint cycles can never conflict on an
// original edge. Every cycle must be a closed walk of the current
// residual; violations return an error (they indicate a stale cycle).
func (rg *Graph) ApplyAll(cycles []graph.Cycle) (graph.EdgeSet, error) {
	if err := rg.check(cycles); err != nil {
		return graph.EdgeSet{}, err
	}
	next := rg.sol.Clone()
	for _, cyc := range cycles {
		for _, id := range cyc.Edges {
			if rg.view.Reversed(id) {
				next.Remove(id)
			} else {
				next.Add(id)
			}
		}
	}
	return next, nil
}

// SolutionCycles computes {P*} ⊕ {P̄} for two solutions given as edge sets:
// by Proposition 8 the result is exactly a set of edge-disjoint cycles of
// the residual graph built against `cur`. Returned cycles live in the view
// (i.e. edges of other \ cur appear forward, edges of cur \ other appear
// reversed). Used by tests of Lemma 9 and by krspbench's residual-update
// benchmark.
func (rg *Graph) SolutionCycles(other graph.EdgeSet) ([]graph.Cycle, error) {
	// Residual edge for original e: same ID by construction.
	v := rg.view
	var resEdges []graph.EdgeID
	for i := 0; i < v.NumEdges(); i++ {
		id := graph.EdgeID(i)
		if rg.sol.Has(id) == other.Has(id) {
			continue // shared or absent: cancels in ⊕
		}
		// other-only → forward edge in residual; cur-only → reversed.
		resEdges = append(resEdges, id)
	}
	// Peel cycles: each vertex is balanced in the residual sub-multigraph.
	// avail is dense-indexed by vertex so the start-vertex scan below walks
	// ascending IDs; a map here would make cycle order hash-dependent.
	avail := make([][]graph.EdgeID, v.NumNodes())
	for _, id := range resEdges {
		avail[v.Tail(id)] = append(avail[v.Tail(id)], id)
	}
	var cycles []graph.Cycle
	for {
		var start graph.NodeID = -1
		for v, edges := range avail {
			if len(edges) > 0 {
				start = graph.NodeID(v)
				break
			}
		}
		if start < 0 {
			break
		}
		var walk []graph.EdgeID
		cur := start
		for {
			edges := avail[cur]
			if len(edges) == 0 {
				return nil, fmt.Errorf("residual: symmetric difference is not a union of cycles (stuck at %d)", cur)
			}
			id := edges[len(edges)-1]
			avail[cur] = edges[:len(edges)-1]
			walk = append(walk, id)
			cur = v.Head(id)
			if cur == start {
				break
			}
			if len(walk) > len(resEdges) {
				return nil, fmt.Errorf("residual: cycle peel exceeded budget")
			}
		}
		cycles = append(cycles, flow.SplitClosedWalk(v, walk)...)
	}
	return cycles, nil
}
