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

// Graph is a residual graph plus the bookkeeping to map residual edges back
// to original edges and to apply residual cycles to solutions.
type Graph struct {
	// R is the residual multigraph. Its vertex set equals the original's.
	R *graph.Digraph
	// Orig is the problem graph G.
	Orig *graph.Digraph
	// origEdge[i] is the original edge behind residual edge i.
	origEdge []graph.EdgeID
	// reversed[i] reports whether residual edge i is a reversed solution
	// edge (negated weights).
	reversed []bool
	// view is the CSR mirror of R, maintained in lockstep: Build flips the
	// solution edges in a view of G, Update flips each applied cycle's
	// edges (no re-pack). The bicameral detection kernels run on it.
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
// by the current k disjoint paths). Residual edge IDs equal original edge
// IDs by construction (edges are inserted in insertion order), which both
// Update and SolutionCycles rely on.
func Build(g *graph.Digraph, sol graph.EdgeSet) *Graph {
	return BuildOn(graph.NewCSR(g), g, sol)
}

// BuildOn is Build over a caller-packed, never-flipped CSR view of g — the
// solver hands over phase 1's — so no second view is packed. The residual
// takes the view over: the solution edges are flipped in it in place, and
// the caller must not use it afterwards.
func BuildOn(view *graph.CSR, g *graph.Digraph, sol graph.EdgeSet) *Graph {
	m := g.NumEdges()
	// Clone the input and flip the solution edges in place: FlipEdge is
	// exactly the Definition-6 transform (reverse, negate both weights) and
	// re-inserts at sorted adjacency position, so the result is identical to
	// re-inserting every edge one by one — at a fraction of the allocations.
	// The view's Flip keeps its rows sorted the same way.
	r := g.Clone()
	res := &Graph{
		R: r, Orig: g, view: view, sol: sol.Clone(),
		origEdge: make([]graph.EdgeID, m),
		reversed: make([]bool, m),
	}
	for i := 0; i < m; i++ {
		id := graph.EdgeID(i)
		res.origEdge[i] = id
		if sol.Has(id) {
			r.FlipEdge(id)
			view.Flip(id)
			res.reversed[i] = true
		}
	}
	return res
}

// View returns the CSR mirror of R. It tracks every Update incrementally
// (epoch bumps on each flipped edge); treat it as read-only.
func (rg *Graph) View() *graph.CSR { return rg.view }

// Update re-points the residual graph at the solution obtained by applying
// the given edge-disjoint residual cycles (the same set a preceding
// ApplyAll consumed): every residual edge on a cycle flips direction and
// sign in place, and the tracked solution set is updated accordingly.
// Update is the incremental counterpart of Build — after a successful call,
// the receiver is bit-identical (edges, adjacency order, bookkeeping) to
// Build(Orig, newSol) — but costs O(Σ|O_i|·log deg) instead of O(m), which
// is what makes per-iteration residual maintenance in the cancellation loop
// cheap. The cycles are validated first; on error the receiver is
// unchanged.
func (rg *Graph) Update(applied []graph.Cycle) error {
	seen := graph.NewEdgeSet()
	for _, cyc := range applied {
		if err := cyc.Validate(rg.R, false); err != nil {
			return fmt.Errorf("residual: bad cycle: %w", err)
		}
		for _, id := range cyc.Edges {
			if seen.Has(id) {
				return fmt.Errorf("residual: cycles share residual edge %d", id)
			}
			seen.Add(id)
			orig := rg.origEdge[id]
			if rg.reversed[id] {
				if !rg.sol.Has(orig) {
					return fmt.Errorf("residual: cycle removes absent edge %d", orig)
				}
			} else if rg.sol.Has(orig) {
				return fmt.Errorf("residual: cycle re-adds edge %d", orig)
			}
		}
	}
	flipped := int64(0)
	for _, cyc := range applied {
		for _, id := range cyc.Edges {
			orig := rg.origEdge[id]
			if rg.reversed[id] {
				rg.sol.Remove(orig)
			} else {
				rg.sol.Add(orig)
			}
			rg.reversed[id] = !rg.reversed[id]
			rg.R.FlipEdge(id)
			rg.view.Flip(id)
			flipped++
		}
	}
	rg.fr.Record(rec.KindResidualApply, int64(len(applied)), flipped, 0, 0)
	return nil
}

// OrigEdge maps a residual edge ID to its originating edge ID.
func (rg *Graph) OrigEdge(id graph.EdgeID) graph.EdgeID { return rg.origEdge[id] }

// Reversed reports whether residual edge id is a reversed solution edge.
func (rg *Graph) Reversed(id graph.EdgeID) bool { return rg.reversed[id] }

// Solution returns (a copy of) the solution edge set this residual graph
// was built against.
func (rg *Graph) Solution() graph.EdgeSet { return rg.sol.Clone() }

// ReversedSeeds returns the set of vertices incident to reversed edges.
// Any residual cycle with negative total delay or negative total cost must
// traverse at least one reversed edge (original weights are nonnegative),
// so cycle searches need only be seeded at these vertices.
func (rg *Graph) ReversedSeeds() []graph.NodeID {
	seen := make([]bool, rg.R.NumNodes())
	var out []graph.NodeID
	for i, rev := range rg.reversed {
		if !rev {
			continue
		}
		e := rg.R.Edge(graph.EdgeID(i))
		if !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
		if !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	return out
}

// CycleCost and CycleDelay measure a residual cycle in residual weights
// (reversed edges already negated).
func (rg *Graph) CycleCost(c graph.Cycle) int64  { return c.Cost(rg.R) }
func (rg *Graph) CycleDelay(c graph.Cycle) int64 { return c.Delay(rg.R) }

// Apply performs one cycle cancellation (Proposition 7): it returns the
// edge set of {P_1..P_k} ⊕ O for a cycle O of the residual graph. Forward
// residual edges enter the solution; reversed residual edges remove their
// originals. The cycle must be valid against the residual this Graph was
// built from; violations return an error (they indicate a stale cycle).
func (rg *Graph) Apply(cycle graph.Cycle) (graph.EdgeSet, error) {
	if err := cycle.Validate(rg.R, false); err != nil {
		return graph.EdgeSet{}, fmt.Errorf("residual: bad cycle: %w", err)
	}
	next := rg.sol.Clone()
	for _, id := range cycle.Edges {
		orig := rg.origEdge[id]
		if rg.reversed[id] {
			if !next.Has(orig) {
				return graph.EdgeSet{}, fmt.Errorf("residual: cycle removes edge %d twice", orig)
			}
			next.Remove(orig)
		} else {
			if next.Has(orig) {
				return graph.EdgeSet{}, fmt.Errorf("residual: cycle adds edge %d twice", orig)
			}
			next.Add(orig)
		}
	}
	return next, nil
}

// ApplyAll cancels a set of edge-disjoint residual cycles in one step
// (Proposition 7 covers sets). Residual edges map bijectively to original
// edges, so edge-disjoint cycles can never conflict on an original edge.
func (rg *Graph) ApplyAll(cycles []graph.Cycle) (graph.EdgeSet, error) {
	next := rg.sol.Clone()
	seen := graph.NewEdgeSet()
	for _, cyc := range cycles {
		if err := cyc.Validate(rg.R, false); err != nil {
			return graph.EdgeSet{}, fmt.Errorf("residual: bad cycle: %w", err)
		}
		for _, id := range cyc.Edges {
			if seen.Has(id) {
				return graph.EdgeSet{}, fmt.Errorf("residual: cycles share residual edge %d", id)
			}
			seen.Add(id)
			orig := rg.origEdge[id]
			if rg.reversed[id] {
				if !next.Has(orig) {
					return graph.EdgeSet{}, fmt.Errorf("residual: cycle removes absent edge %d", orig)
				}
				next.Remove(orig)
			} else {
				if next.Has(orig) {
					return graph.EdgeSet{}, fmt.Errorf("residual: cycle re-adds edge %d", orig)
				}
				next.Add(orig)
			}
		}
	}
	return next, nil
}

// SolutionCycles computes {P*} ⊕ {P̄} for two solutions given as edge sets:
// by Proposition 8 the result is exactly a set of edge-disjoint cycles of
// the residual graph built against `cur`. Returned cycles live in rg.R
// (i.e. edges of other \ cur appear forward, edges of cur \ other appear
// reversed). Used by tests of Lemma 9 and by the exact branch & bound.
func (rg *Graph) SolutionCycles(other graph.EdgeSet) ([]graph.Cycle, error) {
	// Residual edge for original e: same ID by construction.
	var resEdges []graph.EdgeID
	for _, e := range rg.Orig.EdgesView() {
		inCur := rg.sol.Has(e.ID)
		inOther := other.Has(e.ID)
		if inCur == inOther {
			continue // shared or absent: cancels in ⊕
		}
		// other-only → forward edge in residual; cur-only → reversed.
		resEdges = append(resEdges, e.ID)
	}
	// Peel cycles: each vertex is balanced in the residual sub-multigraph.
	// avail is dense-indexed by vertex so the start-vertex scan below walks
	// ascending IDs; a map here would make cycle order hash-dependent.
	avail := make([][]graph.EdgeID, rg.R.NumNodes())
	for _, id := range resEdges {
		re := rg.R.Edge(id)
		avail[re.From] = append(avail[re.From], id)
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
			cur = rg.R.Edge(id).To
			if cur == start {
				break
			}
			if len(walk) > len(resEdges) {
				return nil, fmt.Errorf("residual: cycle peel exceeded budget")
			}
		}
		cycles = append(cycles, flow.SplitClosedWalk(rg.R, walk)...)
	}
	return cycles, nil
}
