// Package shortest implements the single-criterion shortest-path substrate:
// one nonnegative-weight Dijkstra and one SPFA negative-cycle core, both
// over graph.CSR; Yen's k shortest paths on that Dijkstra; and the
// pass-based Bellman–Ford the SPFA falls back to, whose Digraph form is the
// reference the tests check the CSR kernels against. Every kernel takes an
// edge weighting so callers can route on cost, delay, or integer
// combinations q·c + p·d: a LinWeight on CSR kernels, a Weight closure on
// the Digraph Bellman–Ford.
package shortest

import (
	"math"

	"repro/internal/graph"
)

// Inf is the sentinel distance for unreachable vertices.
const Inf = math.MaxInt64

// Weight selects the routing weight of an edge.
type Weight func(e graph.Edge) int64

// CostWeight routes on edge cost.
func CostWeight(e graph.Edge) int64 { return e.Cost }

// DelayWeight routes on edge delay.
func DelayWeight(e graph.Edge) int64 { return e.Delay }

// Combine returns the weight q·cost + p·delay; exact integer arithmetic for
// Lagrangian searches with rational multiplier λ = p/q.
func Combine(q, p int64) Weight {
	return func(e graph.Edge) int64 { return q*e.Cost + p*e.Delay } //lint:allow weightovf exact λ=p/q search; callers keep |p|,|q|·MaxWeight in range
}

// Tree is a shortest-path tree: Dist[v] is the distance from the source
// (Inf if unreachable) and Parent[v] is the tree edge entering v (-1 at the
// source and at unreachable vertices).
type Tree struct {
	Dist   []int64
	Parent []graph.EdgeID
}

// PathTo reconstructs the tree path from the source to v, or nil if v is
// unreachable.
func (t Tree) PathTo(g *graph.Digraph, v graph.NodeID) (graph.Path, bool) {
	if t.Dist[v] == Inf {
		return graph.Path{}, false
	}
	var rev []graph.EdgeID
	for t.Parent[v] >= 0 {
		id := t.Parent[v]
		rev = append(rev, id)
		v = g.Edge(id).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return graph.Path{Edges: rev}, true
}
