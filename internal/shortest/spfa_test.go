package shortest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/obs"
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

// TestSPFADetectionLatency: a −1 three-cycle whose vertex 2 feeds a fan of
// n leaves closes in the parent graph after three relaxations, so the
// amortised parent-graph scan reports it within 3n improving relaxations.
// A path-length ≥ n trigger waits for ~n/3 laps of the cycle, each
// re-relaxing every leaf: ~n²/3 relaxations.
func TestSPFADetectionLatency(t *testing.T) {
	const leaves = 600
	g := graph.New(3 + leaves)
	g.AddEdge(0, 1, 0, 0)
	g.AddEdge(1, 2, 0, 0)
	g.AddEdge(2, 0, -1, 0)
	for v := 3; v < g.NumNodes(); v++ {
		g.AddEdge(2, graph.NodeID(v), 0, 0)
	}
	sink := obs.New(nil).ShortestMetrics()
	ws := NewWorkspace(g.NumNodes())
	ws.SetMetrics(sink)
	_, cyc, ok := SPFAAllCSRInto(ws, graph.NewCSR(g), LinCost, nil)
	if ok || cyc.Validate(g, true) != nil || cyc.Cost(g) != -1 {
		t.Fatalf("ok=%v cycle=%v, want the -1 three-cycle", ok, cyc.Edges)
	}
	if relax, limit := sink.Relaxations.Value(), int64(3*g.NumNodes()); relax > limit {
		t.Fatalf("cycle found after %d improving relaxations, want ≤ 3n = %d", relax, limit)
	}
}

// negativeDAG is an n-vertex graph with edges only from lower to higher
// IDs and costs in [-10, 10): negative edges but no cycle at all.
func negativeDAG(seed int64, n, m int) *graph.Digraph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		g.AddEdge(graph.NodeID(u), graph.NodeID(v), int64(r.Intn(20)-10), 0)
	}
	return g
}

// TestSPFANoAllocAtScale measures the //krsp:noalloc claim behind the
// workspace's n-slot queue and stamp arrays: once warmed, neither a
// no-cycle run nor a budget-exhausted run allocates at N≈2k.
func TestSPFANoAllocAtScale(t *testing.T) {
	g := negativeDAG(7, 2000, 6000)
	c := graph.NewCSR(g)
	ws := NewWorkspace(g.NumNodes())
	sink := obs.New(nil).ShortestMetrics()
	ws.SetMetrics(sink)
	if _, _, ok := SPFAAllCSRInto(ws, c, LinCost, nil); !ok {
		t.Fatal("negative DAG reported a negative cycle")
	}
	relax := sink.Relaxations.Value()
	if relax < int64(g.NumNodes()) {
		t.Fatalf("only %d relaxations: the run is too small to exercise the queue", relax)
	}
	if a := testing.AllocsPerRun(20, func() { SPFAAllCSRInto(ws, c, LinCost, nil) }); a != 0 {
		t.Fatalf("no-cycle SPFAAllCSRInto: %v allocs/run, want 0", a)
	}
	budget := int(relax / 2)
	if _, _, done := SPFAAllBoundedCSRInto(ws, c, LinCost, budget); done {
		t.Fatalf("budget %d of %d relaxations still reached a verdict", budget, relax)
	}
	if a := testing.AllocsPerRun(20, func() { SPFAAllBoundedCSRInto(ws, c, LinCost, budget) }); a != 0 {
		t.Fatalf("budget-exhausted SPFAAllBoundedCSRInto: %v allocs/run, want 0", a)
	}
}
