package shortest

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func mkWeighted(t *testing.T) *graph.Digraph {
	t.Helper()
	// 0→1 (1/10), 0→2 (4/1), 1→2 (2/1), 2→3 (1/1), 1→3 (7/2)
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(0, 2, 4, 1)
	g.AddEdge(1, 2, 2, 1)
	g.AddEdge(2, 3, 1, 1)
	g.AddEdge(1, 3, 7, 2)
	return g
}

func TestDijkstraCost(t *testing.T) {
	g := mkWeighted(t)
	tr := DijkstraCSRInto(NewWorkspace(4), graph.NewCSR(g), 0, LinCost)
	want := []int64{0, 1, 3, 4}
	for v, d := range want {
		if tr.Dist[v] != d {
			t.Fatalf("dist[%d]=%d want %d", v, tr.Dist[v], d)
		}
	}
	p, _ := tr.PathTo(g, 3)
	if err := p.Validate(g, 0, 3, true); err != nil {
		t.Fatal(err)
	}
	if p.Cost(g) != 4 {
		t.Fatalf("path cost %d", p.Cost(g))
	}
}

// A vertex with no path from the source stays at Inf and has no path.
func TestDijkstraUnreachable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 1)
	tr := DijkstraCSRInto(NewWorkspace(3), graph.NewCSR(g), 0, LinCost)
	if tr.Dist[2] != Inf {
		t.Fatal("vertex 2 should be unreachable")
	}
	if _, ok := tr.PathTo(g, 2); ok {
		t.Fatal("PathTo unreachable should fail")
	}
}

func TestDijkstraDelay(t *testing.T) {
	g := mkWeighted(t)
	tr := DijkstraCSRInto(NewWorkspace(4), graph.NewCSR(g), 0, LinDelay)
	if tr.Dist[3] != 2 { // 0→2→3: 1+1
		t.Fatalf("delay dist[3]=%d", tr.Dist[3])
	}
}

func TestDijkstraPanicsOnNegative(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, -1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DijkstraCSRInto(NewWorkspace(2), graph.NewCSR(g), 0, LinCost)
}

func TestCombineWeight(t *testing.T) {
	e := graph.Edge{Cost: 3, Delay: 5}
	if w := Combine(2, 7)(e); w != 2*3+7*5 {
		t.Fatalf("combine = %d", w)
	}
}

func TestBellmanFordMatchesDijkstraNonneg(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		g := graph.New(n)
		m := r.Intn(4 * n)
		for i := 0; i < m; i++ {
			g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), int64(r.Intn(50)), int64(r.Intn(50)))
		}
		bf, _, ok := BellmanFord(g, 0, CostWeight)
		if !ok {
			return false // nonnegative weights: no negative cycle possible
		}
		dj := DijkstraCSRInto(NewWorkspace(n), graph.NewCSR(g), 0, LinCost)
		for v := 0; v < n; v++ {
			if bf.Dist[v] != dj.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBellmanFordNegativeEdgesNoCycle(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 4, 0)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(2, 1, -3, 0)
	g.AddEdge(1, 3, 2, 0)
	tr, _, ok := BellmanFord(g, 0, CostWeight)
	if !ok {
		t.Fatal("no negative cycle expected")
	}
	if tr.Dist[1] != -2 || tr.Dist[3] != 0 {
		t.Fatalf("dist = %v", tr.Dist)
	}
}

func TestBellmanFordDetectsNegativeCycle(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, -5, 0)
	g.AddEdge(2, 1, 2, 0)
	_, cyc, ok := BellmanFord(g, 0, CostWeight)
	if ok {
		t.Fatal("negative cycle not detected")
	}
	if err := cyc.Validate(g, true); err != nil {
		t.Fatal(err)
	}
	if cyc.Cost(g) >= 0 {
		t.Fatalf("cycle cost %d not negative", cyc.Cost(g))
	}
}

func TestNegativeCycleAbsent(t *testing.T) {
	g := mkWeighted(t)
	if _, _, ok := BellmanFordAll(g, CostWeight); !ok {
		t.Fatal("Bellman–Ford found a phantom negative cycle")
	}
	if _, _, ok := SPFAAllCSRInto(NewWorkspace(4), graph.NewCSR(g), LinCost, nil); !ok {
		t.Fatal("SPFA found a phantom negative cycle")
	}
}

func TestNegativeCycleUnreachableFromZero(t *testing.T) {
	// Negative cycle in a component unreachable from vertex 0; the
	// all-sources searches must still find it.
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(2, 3, -5, 0)
	g.AddEdge(3, 2, 1, 0)
	_, bfCyc, bfOK := BellmanFordAll(g, CostWeight)
	_, cyc, ok := SPFAAllCSRInto(NewWorkspace(4), graph.NewCSR(g), LinCost, nil)
	for _, c := range []graph.Cycle{bfCyc, cyc} {
		if bfOK || ok {
			t.Fatal("missed negative cycle")
		}
		if err := c.Validate(g, true); err != nil {
			t.Fatal(err)
		}
		if c.Cost(g) >= 0 {
			t.Fatalf("cycle cost %d", c.Cost(g))
		}
	}
}

// TestPotentialsValid: when the all-sources SPFA finds no negative cycle
// its distances are potentials that make every reduced cost nonnegative;
// when it finds one, Bellman–Ford must agree that one exists.
func TestPotentialsValid(t *testing.T) {
	ws := NewWorkspace(1)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := graph.New(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), int64(r.Intn(40)-5), 0)
		}
		tr, _, ok := SPFAAllCSRInto(ws, graph.NewCSR(g), LinCost, nil)
		if !ok {
			_, _, bfOK := BellmanFordAll(g, CostWeight)
			return !bfOK
		}
		for _, e := range g.Edges() {
			if e.Cost+tr.Dist[e.From]-tr.Dist[e.To] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
