package shortest

import (
	"repro/internal/graph"
)

// BellmanFord computes shortest paths from s under w, allowing negative
// weights. If a negative cycle is reachable from s, ok=false and the cycle
// is returned; otherwise ok=true and cycle is empty. It is the pass-based
// reference over a Digraph: the solve path runs the CSR kernels, and tests
// check them against this and BellmanFordAll.
func BellmanFord(g *graph.Digraph, s graph.NodeID, w Weight) (t Tree, cycle graph.Cycle, ok bool) {
	t = NewWorkspace(g.NumNodes()).tree(g.NumNodes())
	for v := range t.Dist {
		t.Dist[v] = Inf
		t.Parent[v] = -1
	}
	t.Dist[s] = 0
	return bfCore(g, w, t)
}

// BellmanFordAll runs Bellman–Ford from a virtual super-source connected to
// every vertex with weight 0 (all initial distances zero). It detects a
// negative cycle anywhere in the graph; otherwise the distances form valid
// potentials: dist[v] ≤ dist[u] + w(u→v) for every edge.
func BellmanFordAll(g *graph.Digraph, w Weight) (t Tree, cycle graph.Cycle, ok bool) {
	return bfCore(g, w, NewWorkspace(g.NumNodes()).zeroTree(g.NumNodes()))
}

func bfCore(g *graph.Digraph, w Weight, t Tree) (Tree, graph.Cycle, bool) {
	n := g.NumNodes()
	edges := g.EdgesView()
	var lastRelaxed graph.NodeID = -1
	for pass := 0; pass < n; pass++ {
		changed := false
		for _, e := range edges {
			if t.Dist[e.From] == Inf {
				continue
			}
			if nd := t.Dist[e.From] + w(e); nd < t.Dist[e.To] { //lint:allow weightovf finite Dist is a <=n-1 edge path sum, |nd| < n*MaxWeight < 2^47
				t.Dist[e.To] = nd
				t.Parent[e.To] = e.ID
				changed = true
				lastRelaxed = e.To
			}
		}
		if !changed {
			return t, graph.Cycle{}, true
		}
	}
	// A relaxation happened in the n-th pass: a negative cycle exists.
	// Walk parents n times from the last relaxed vertex to guarantee we are
	// on the cycle, then extract it.
	v := lastRelaxed
	for i := 0; i < n; i++ {
		v = g.Edge(t.Parent[v]).From
	}
	cyc := extractParentCycle(g, t.Parent, v)
	return t, cyc, false
}

// extractParentCycle follows parent edges from a vertex known to lie on a
// parent-pointer cycle and returns that cycle in forward edge order.
//
//krsp:terminates(parent-pointer cycle is vertex-simple, so the walk closes within n steps)
func extractParentCycle(g *graph.Digraph, parent []graph.EdgeID, start graph.NodeID) graph.Cycle {
	var revEdges []graph.EdgeID
	v := start
	for {
		id := parent[v]
		revEdges = append(revEdges, id)
		v = g.Edge(id).From
		if v == start {
			break
		}
	}
	// revEdges currently lists edges from the cycle walked backwards;
	// reverse to get forward order starting at `start`'s predecessor chain.
	for i, j := 0, len(revEdges)-1; i < j; i, j = i+1, j-1 {
		revEdges[i], revEdges[j] = revEdges[j], revEdges[i]
	}
	return graph.Cycle{Edges: revEdges}
}
