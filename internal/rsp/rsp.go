// Package rsp implements the single (k=1) Restricted Shortest Path
// problem: min-cost s→t path with delay ≤ D. It is both a baseline (the
// paper's citations [7, 17]) and a substrate: the exact layered DP doubles
// as the engine behind auxiliary-graph searches elsewhere.
//
// Three solvers are provided:
//   - ExactDP: pseudo-polynomial O((D+1)·m·log) layered Dijkstra.
//   - LARAC:   Lagrangian relaxation with exact integer arithmetic; returns
//     a feasible path plus a lower bound on OPT.
//   - FPTAS:   (1+ε)-approximation by cost scaling with geometric interval
//     narrowing (Hassin / Lorenz–Raz style).
package rsp

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/pq"
	"repro/internal/shortest"
)

// ErrInfeasible reports that no s→t path satisfies the delay bound.
var ErrInfeasible = errors.New("rsp: no path within delay bound")

// Result is a solved RSP query.
type Result struct {
	Path  graph.Path
	Cost  int64
	Delay int64
	// LowerBound ≤ OPT cost; equals Cost for exact solvers.
	LowerBound int64
}

// layeredDijkstra runs Dijkstra over the implicit layered graph whose nodes
// are (v, b) with b = accumulated layer weight ≤ cap; layer increments come
// from layerW (must be ≥ 0) and path lengths from distW (must be ≥ 0).
// dist[b][v] is the min distW-length of an s→(v,≤ rearranged) walk reaching
// v with layer budget exactly b consumed; parent pointers allow path
// reconstruction.
type layered struct {
	cap    int64
	n      int
	dist   []int64        // index b*n + v
	parent []graph.EdgeID // edge into (v,b); -1 if root/unreached
	prevB  []int64        // layer of the parent state
}

func (l *layered) at(b int64, v graph.NodeID) int { return int(b)*l.n + int(v) }

func runLayered(g *graph.Digraph, s graph.NodeID, layerW, distW shortest.Weight, cap int64) *layered {
	n := g.NumNodes()
	size := (cap + 1) * int64(n)
	l := &layered{cap: cap, n: n,
		dist:   make([]int64, size),
		parent: make([]graph.EdgeID, size),
		prevB:  make([]int64, size),
	}
	for i := range l.dist {
		l.dist[i] = shortest.Inf
		l.parent[i] = -1
	}
	start := l.at(0, s)
	l.dist[start] = 0
	h := pq.New(int(size))
	h.Push(start, 0)
	settled := make([]bool, size)
	for h.Len() > 0 {
		idx, du := h.Pop()
		if settled[idx] {
			continue
		}
		settled[idx] = true
		b := int64(idx) / int64(n)
		v := graph.NodeID(int64(idx) % int64(n))
		for _, id := range g.Out(v) {
			e := g.Edge(id)
			lw, dw := layerW(e), distW(e)
			if lw < 0 || dw < 0 {
				//lint:allow nopanic scaling invariant: layered weights of validated instances are nonnegative
				panic(fmt.Sprintf("rsp: negative layered weights (%d,%d)", lw, dw))
			}
			nb := b + lw
			if nb > cap {
				continue
			}
			ni := l.at(nb, e.To)
			if settled[ni] {
				continue
			}
			if nd := du + dw; nd < l.dist[ni] {
				l.dist[ni] = nd
				l.parent[ni] = id
				l.prevB[ni] = b
				h.Push(ni, nd)
			}
		}
	}
	return l
}

// best returns the minimum dist over all layers b ≤ cap at v, with the
// layer achieving it.
func (l *layered) best(v graph.NodeID) (bestB int64, bestD int64) {
	bestB, bestD = -1, shortest.Inf
	for b := int64(0); b <= l.cap; b++ {
		if d := l.dist[l.at(b, v)]; d < bestD {
			bestD = d
			bestB = b
		}
	}
	return bestB, bestD
}

// pathTo reconstructs the path into state (v, b).
func (l *layered) pathTo(g *graph.Digraph, v graph.NodeID, b int64) graph.Path {
	var rev []graph.EdgeID
	for {
		idx := l.at(b, v)
		id := l.parent[idx]
		if id < 0 {
			break
		}
		rev = append(rev, id)
		b = l.prevB[idx]
		v = g.Edge(id).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return graph.Path{Edges: rev}
}

// ExactDP solves RSP exactly in O((D+1)·m·log((D+1)·n)) time via Dijkstra
// over the delay-layered graph. Pseudo-polynomial in D.
func ExactDP(g *graph.Digraph, s, t graph.NodeID, bound int64) (Result, error) {
	if bound < 0 {
		return Result{}, ErrInfeasible
	}
	l := runLayered(g, s, shortest.DelayWeight, shortest.CostWeight, bound)
	b, cost := l.best(t)
	if b < 0 {
		return Result{}, ErrInfeasible
	}
	p := l.pathTo(g, t, b)
	return Result{Path: p, Cost: cost, Delay: p.Delay(g), LowerBound: cost}, nil
}

// LARAC solves RSP approximately via Lagrangian relaxation. It returns a
// feasible path (delay ≤ D) whose cost is at most OPT + gap where the gap
// is certified by Result.LowerBound ≤ OPT. All arithmetic is exact: the
// multiplier λ = p/q is kept rational and paths are computed under the
// integer weight q·c + p·d.
func LARAC(g *graph.Digraph, s, t graph.NodeID, bound int64) (Result, error) {
	// One packed view and one workspace serve every Dijkstra below: the
	// Lagrangian loop runs up to 256 searches over the same graph, and paths
	// are materialized before the next search clobbers the tree.
	cs := graph.NewCSR(g)
	ws := shortest.NewWorkspace(g.NumNodes())
	// Cost-minimal path: if feasible, it is exactly optimal.
	tc := shortest.DijkstraCSRInto(ws, cs, s, shortest.LinCost)
	pc, ok := tc.PathTo(g, t)
	if !ok {
		return Result{}, ErrInfeasible
	}
	if pc.Delay(g) <= bound {
		c := pc.Cost(g)
		return Result{Path: pc, Cost: c, Delay: pc.Delay(g), LowerBound: c}, nil
	}
	// Delay-minimal path: if infeasible, the instance is infeasible.
	td := shortest.DijkstraCSRInto(ws, cs, s, shortest.LinDelay)
	pd, ok := td.PathTo(g, t)
	if !ok || pd.Delay(g) > bound {
		return Result{}, ErrInfeasible
	}
	// Invariant: pc infeasible (delay > D), pd feasible (delay ≤ D).
	lower := pc.Cost(g) // trivial lower bound: cost of unconstrained min
	for iter := 0; iter < 256; iter++ {
		// λ = (c(pd) − c(pc)) / (d(pc) − d(pd)) ≥ 0: pc is the cheap
		// infeasible path, pd the pricier feasible one, so the numerator is
		// ≥ 0 and the denominator > 0 by the invariant.
		p := pd.Cost(g) - pc.Cost(g)
		q := pc.Delay(g) - pd.Delay(g)
		if p < 0 {
			p = 0 // cost tie degenerates to λ = 0
		}
		if q <= 0 {
			break
		}
		w := shortest.LinCombine(q, p)
		tr := shortest.DijkstraCSRInto(ws, cs, s, w)
		r, _ := tr.PathTo(g, t)
		wr := weightOf(g, r, w)
		// Lagrangian lower bound: (wλ(r) − p·D) / q ≤ OPT.
		if lb := divCeil(wr-p*bound, q); lb > lower {
			lower = lb
		}
		if wr == weightOf(g, pc, w) || wr == weightOf(g, pd, w) {
			break // converged: r ties an endpoint
		}
		if r.Delay(g) <= bound {
			pd = r
		} else {
			pc = r
		}
	}
	c := pd.Cost(g)
	if lower > c {
		lower = c
	}
	if lower < 0 {
		lower = 0
	}
	return Result{Path: pd, Cost: c, Delay: pd.Delay(g), LowerBound: lower}, nil
}

// FPTAS solves RSP within factor (1+ε) on cost, strictly obeying the delay
// bound. eps must be > 0. Runs in time polynomial in the graph size, 1/ε
// and log(Cmax).
func FPTAS(g *graph.Digraph, s, t graph.NodeID, bound int64, eps float64) (Result, error) {
	if eps <= 0 {
		return Result{}, fmt.Errorf("rsp: eps must be positive, got %g", eps)
	}
	// Feasibility + upper bound: min-delay path. Both probes and their paths
	// are materialized off one packed view and one workspace.
	cs := graph.NewCSR(g)
	ws := shortest.NewWorkspace(g.NumNodes())
	td := shortest.DijkstraCSRInto(ws, cs, s, shortest.LinDelay)
	pd, ok := td.PathTo(g, t)
	if !ok || pd.Delay(g) > bound {
		return Result{}, ErrInfeasible
	}
	ub := pd.Cost(g)
	// Lower bound: unconstrained min cost; exact answer if feasible.
	tc := shortest.DijkstraCSRInto(ws, cs, s, shortest.LinCost)
	pc, _ := tc.PathTo(g, t)
	if pc.Delay(g) <= bound {
		c := pc.Cost(g)
		return Result{Path: pc, Cost: c, Delay: pc.Delay(g), LowerBound: c}, nil
	}
	lb := pc.Cost(g)
	if lb < 1 {
		lb = 1
	}
	n := int64(g.NumNodes())
	// Geometric narrowing: find V with OPT ∈ (V/2, 3V].
	v := lb
	for v < ub {
		if testAtMost(g, s, t, bound, v, n) {
			break // OPT ≤ 3V
		}
		v *= 2
	}
	// Final scaled DP with θ = max(1, ⌈ε·V/(2n)⌉); cost error ≤ n·θ ≤ ε·V/2
	// ≤ ε·OPT (since OPT > V/2 when the loop advanced; when it broke at
	// V = lb, θ's error ≤ ε·lb/2 ≤ ε·OPT too).
	theta := int64(eps*float64(v)/(4*float64(n))) + 1
	cap := 3*v/theta + n + 1
	if capTotal := g.SumCost()/theta + n + 1; cap > capTotal { //lint:allow weightovf θ-scaled cost cap ≤ SumCost < 2^61
		cap = capTotal
	}
	scaled := func(e graph.Edge) int64 { return e.Cost / theta }
	l := runLayered(g, s, scaled, shortest.DelayWeight, cap)
	// Minimum scaled budget whose min delay is feasible.
	for b := int64(0); b <= cap; b++ {
		if l.dist[l.at(b, t)] <= bound {
			p := l.pathTo(g, t, b)
			return Result{Path: p, Cost: p.Cost(g), Delay: p.Delay(g), LowerBound: lb}, nil
		}
	}
	// Unreachable in theory (pd is feasible and has scaled cost ≤ cap);
	// return the min-delay path as a safe fallback.
	return Result{Path: pd, Cost: pd.Cost(g), Delay: pd.Delay(g), LowerBound: lb}, nil
}

// testAtMost reports whether some feasible path has cost ≤ 3V (true) or
// certifies every feasible path costs > V (false), using a coarse scaled
// DP with θ = max(1, V/n) and budget cap 2n.
func testAtMost(g *graph.Digraph, s, t graph.NodeID, bound, v, n int64) bool {
	theta := v / n
	if theta < 1 {
		theta = 1
	}
	cap := 2 * n
	if capV := v/theta + n; capV < cap {
		cap = capV
	}
	scaled := func(e graph.Edge) int64 { return e.Cost / theta }
	l := runLayered(g, s, scaled, shortest.DelayWeight, cap)
	for b := int64(0); b <= cap; b++ {
		if l.dist[l.at(b, t)] <= bound {
			return true
		}
	}
	return false
}

func weightOf(g *graph.Digraph, p graph.Path, lw shortest.LinWeight) int64 {
	var s int64
	for _, id := range p.Edges {
		e := g.Edge(id)
		s += lw.Of(e.Cost, e.Delay)
	}
	return s
}

func divCeil(a, b int64) int64 {
	if b <= 0 {
		//lint:allow nopanic divisor is θ ≥ 1 by construction; programmer error
		panic("rsp: divCeil nonpositive divisor")
	}
	q := a / b
	if a%b != 0 && (a > 0) == (b > 0) {
		q++
	}
	return q
}
