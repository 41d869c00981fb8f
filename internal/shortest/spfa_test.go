package shortest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// randCostGraph is a random simple-edge graph with costs in [lo, lo+span)
// and zero delays.
func randCostGraph(r *rand.Rand, lo, span int) *graph.Digraph {
	n := 2 + r.Intn(10)
	g := graph.New(n)
	for i := 0; i < 3*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(span)+lo), 0)
		}
	}
	return g
}

// TestSPFAMatchesBellmanFord: with an ample budget the bounded CSR search
// always reaches a verdict, and it is Bellman–Ford's.
func TestSPFAMatchesBellmanFord(t *testing.T) {
	ws := NewWorkspace(1)
	f := func(seed int64) bool {
		g := randCostGraph(rand.New(rand.NewSource(seed)), -8, 41)
		_, _, bfOK := BellmanFordAll(g, CostWeight)
		cyc, neg, done := SPFAAllBoundedCSRInto(ws, graph.NewCSR(g), LinCost, 1<<30)
		if !done || neg == bfOK {
			return false
		}
		if neg {
			return cyc.Validate(g, true) == nil && cyc.Cost(g) < 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestSPFAAllMatchesBellmanFordAll: the unbudgeted CSR search agrees with
// Bellman–Ford, returns negative simple cycles, and otherwise leaves valid
// potentials.
func TestSPFAAllMatchesBellmanFordAll(t *testing.T) {
	ws := NewWorkspace(1)
	for seed := int64(0); seed < 120; seed++ {
		g := randCostGraph(rand.New(rand.NewSource(seed)), -6, 31)
		checkNegCycleVerdict(t, "spfa", ws, g, graph.NewCSR(g), CostWeight, LinCost, nil)
	}
}

// TestSPFASimple pins the all-sources distances on a small graph, and the
// bounded search's verdicts on a negative cycle: found with enough budget,
// no verdict when the budget runs out first.
func TestSPFASimple(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 4, 0)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(2, 1, -3, 0)
	g.AddEdge(1, 3, 2, 0)
	tr, _, ok := SPFAAllCSRInto(NewWorkspace(4), graph.NewCSR(g), LinCost, nil)
	want := []int64{0, -3, 0, -1}
	for v, d := range want {
		if !ok || tr.Dist[v] != d {
			t.Fatalf("ok=%v dist=%v want %v", ok, tr.Dist, want)
		}
	}

	g.AddEdge(3, 2, -1, 0) // 2→1→3→2 costs -2
	c := graph.NewCSR(g)
	cyc, neg, done := SPFAAllBoundedCSRInto(NewWorkspace(4), c, LinCost, 1<<20)
	if !done || !neg || cyc.Cost(g) != -2 {
		t.Fatalf("ample budget: neg=%v done=%v cycle=%v", neg, done, cyc.Edges)
	}
	if _, neg, done := SPFAAllBoundedCSRInto(NewWorkspace(4), c, LinCost, 1); done || neg {
		t.Fatalf("budget 1: neg=%v done=%v, want no verdict", neg, done)
	}
}
