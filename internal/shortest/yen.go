package shortest

import (
	"sort"

	"repro/internal/graph"
)

// KShortestPaths implements Yen's algorithm: the K cheapest vertex-simple
// s→t paths under lw in nondecreasing weight order (fewer than K are
// returned when the graph runs out of simple paths). Weights must be
// nonnegative. It backs the Yen-greedy baseline and is generally useful as
// a substrate for path-enumeration heuristics.
func KShortestPaths(g *graph.Digraph, s, t graph.NodeID, K int, lw LinWeight) []graph.Path {
	if K <= 0 {
		return nil
	}
	// One workspace serves the initial search and every spur search: each
	// tree is consumed (PathTo) before the next search overwrites it.
	ws := NewWorkspace(g.NumNodes())
	first := DijkstraCSRInto(ws, graph.NewCSR(g), s, lw)
	p0, ok := first.PathTo(g, t)
	if !ok {
		return nil
	}
	accepted := []graph.Path{p0}
	type cand struct {
		path   graph.Path
		weight int64
	}
	var pool []cand
	seen := map[string]bool{pathKey(p0): true}

	for len(accepted) < K {
		prev := accepted[len(accepted)-1]
		prevNodes := prev.Nodes(g)
		// Spur from every vertex of the last accepted path.
		for i := 0; i < len(prev.Edges); i++ {
			spurNode := prevNodes[i]
			root := prev.Edges[:i]
			// Ban edges that would recreate any accepted path sharing this
			// root, and ban root vertices to keep paths simple.
			bannedEdges := graph.NewEdgeSet()
			for _, ap := range accepted {
				if len(ap.Edges) > i && equalPrefix(ap.Edges, root, i) {
					bannedEdges.Add(ap.Edges[i])
				}
			}
			bannedNodes := map[graph.NodeID]bool{}
			for _, v := range prevNodes[:i] {
				bannedNodes[v] = true
			}
			spur, ok := dijkstraRestricted(ws, g, spurNode, t, lw, bannedEdges, bannedNodes)
			if !ok {
				continue
			}
			full := graph.Path{Edges: append(append([]graph.EdgeID(nil), root...), spur.Edges...)}
			key := pathKey(full)
			if seen[key] {
				continue
			}
			seen[key] = true
			var wt int64
			for _, id := range full.Edges {
				e := g.Edge(id)
				wt += lw.Of(e.Cost, e.Delay)
			}
			pool = append(pool, cand{full, wt})
		}
		if len(pool) == 0 {
			break
		}
		sort.Slice(pool, func(a, b int) bool { return pool[a].weight < pool[b].weight })
		accepted = append(accepted, pool[0].path)
		pool = pool[1:]
	}
	return accepted
}

// dijkstraRestricted runs Dijkstra on a packed copy of g without the banned
// edges and vertices, reusing the caller's workspace for the search tree.
func dijkstraRestricted(ws *Workspace, g *graph.Digraph, s, t graph.NodeID, lw LinWeight,
	bannedEdges graph.EdgeSet, bannedNodes map[graph.NodeID]bool) (graph.Path, bool) {
	if bannedNodes[s] {
		return graph.Path{}, false
	}
	sub := graph.New(g.NumNodes())
	mapping := make([]graph.EdgeID, 0, g.NumEdges())
	for _, e := range g.EdgesView() {
		if bannedEdges.Has(e.ID) || bannedNodes[e.From] || bannedNodes[e.To] {
			continue
		}
		sub.AddEdge(e.From, e.To, e.Cost, e.Delay)
		mapping = append(mapping, e.ID)
	}
	tr := DijkstraCSRInto(ws, graph.NewCSR(sub), s, lw)
	p, ok := tr.PathTo(sub, t)
	if !ok {
		return graph.Path{}, false
	}
	orig := make([]graph.EdgeID, len(p.Edges))
	for i, id := range p.Edges {
		orig[i] = mapping[id]
	}
	return graph.Path{Edges: orig}, true
}

func equalPrefix(a []graph.EdgeID, b []graph.EdgeID, n int) bool {
	if len(a) < n || len(b) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pathKey(p graph.Path) string {
	buf := make([]byte, 0, 4*len(p.Edges))
	for _, id := range p.Edges {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(buf)
}
