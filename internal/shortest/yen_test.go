package shortest

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestKShortestPathsSimple(t *testing.T) {
	// Three s→t routes with distinct costs 4, 5, 8.
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 0) // e0
	g.AddEdge(1, 3, 3, 0) // e1   route A: 4
	g.AddEdge(0, 2, 2, 0) // e2
	g.AddEdge(2, 3, 3, 0) // e3   route B: 5
	g.AddEdge(0, 3, 8, 0) // e4   route C: 8
	paths := KShortestPaths(g, 0, 3, 5, LinCost)
	if len(paths) != 3 {
		t.Fatalf("got %d paths", len(paths))
	}
	wantCosts := []int64{4, 5, 8}
	for i, p := range paths {
		if err := p.Validate(g, 0, 3, true); err != nil {
			t.Fatal(err)
		}
		if p.Cost(g) != wantCosts[i] {
			t.Fatalf("path %d cost %d want %d", i, p.Cost(g), wantCosts[i])
		}
	}
}

func TestKShortestPathsDegenerate(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 0)
	if got := KShortestPaths(g, 0, 2, 3, LinCost); got != nil {
		t.Fatalf("unreachable sink returned %d paths", len(got))
	}
	if got := KShortestPaths(g, 0, 1, 0, LinCost); got != nil {
		t.Fatal("K=0 must return nil")
	}
	if got := KShortestPaths(g, 0, 1, 5, LinCost); len(got) != 1 {
		t.Fatalf("single-route graph returned %d paths", len(got))
	}
}

// TestKShortestPathsMatchesEnumeration: Yen's output equals the K cheapest
// simple paths from exhaustive enumeration, in cost order, with no
// duplicates.
func TestKShortestPathsMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(5)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(1+r.Intn(20)), int64(r.Intn(20)))
			}
		}
		s, tt := graph.NodeID(0), graph.NodeID(n-1)
		K := 1 + r.Intn(6)
		got := KShortestPaths(g, s, tt, K, LinCost)
		// Exhaustive baseline.
		var all []graph.Path
		var cur []graph.EdgeID
		on := map[graph.NodeID]bool{s: true}
		var dfs func(v graph.NodeID)
		dfs = func(v graph.NodeID) {
			if v == tt {
				all = append(all, graph.Path{Edges: append([]graph.EdgeID(nil), cur...)})
				return
			}
			for _, id := range g.Out(v) {
				e := g.Edge(id)
				if on[e.To] {
					continue
				}
				on[e.To] = true
				cur = append(cur, id)
				dfs(e.To)
				cur = cur[:len(cur)-1]
				delete(on, e.To)
			}
		}
		dfs(s)
		sort.SliceStable(all, func(a, b int) bool { return all[a].Cost(g) < all[b].Cost(g) })
		wantLen := K
		if len(all) < K {
			wantLen = len(all)
		}
		if len(got) != wantLen {
			return false
		}
		// Cost sequence must match (ties make exact path identity ambiguous).
		seen := map[string]bool{}
		for i, p := range got {
			if p.Validate(g, s, tt, true) != nil {
				return false
			}
			if p.Cost(g) != all[i].Cost(g) {
				return false
			}
			key := pathKey(p)
			if seen[key] {
				return false // duplicate
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
