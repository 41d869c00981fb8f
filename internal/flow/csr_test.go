package flow_test

import (
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// randomFlowGraph builds a seeded nonnegative-weight multigraph with a
// planted fan of s→t paths so k-flows up to width are feasible.
func randomFlowGraph(seed int64, n, m, width int) (*graph.Digraph, graph.NodeID, graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	s, t := graph.NodeID(0), graph.NodeID(n-1)
	for w := 0; w < width; w++ {
		mid := graph.NodeID(1 + rng.Intn(n-2))
		g.AddEdge(s, mid, int64(rng.Intn(20)), int64(rng.Intn(20)))
		g.AddEdge(mid, t, int64(rng.Intn(20)), int64(rng.Intn(20)))
	}
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		for v == u {
			v = graph.NodeID(rng.Intn(n))
		}
		g.AddEdge(u, v, int64(rng.Intn(20)), int64(rng.Intn(20)))
	}
	return g, s, t
}

func sortedIDs(f flow.UnitFlow) []graph.EdgeID {
	return graph.SortedEdgeIDs(f.Edges.IDs())
}

// TestKFlowSolverTargetIsExact asserts the target-stopped variant finds
// flows of identical optimal weight (exactness) with identical feasibility
// verdicts, even though tie-broken flow supports may differ.
func TestKFlowSolverTargetIsExact(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g, s, tt := randomFlowGraph(seed+50, 30, 120, 5)
		kf := flow.NewKFlowSolver(graph.NewCSR(g))
		for k := 0; k <= 7; k++ {
			for _, lw := range []shortest.LinWeight{shortest.LinCost, shortest.LinDelay, shortest.LinCombine(2, 5)} {
				fe, errE := kf.MinCostKFlow(s, tt, k, lw, nil, nil)
				ft, errT := kf.MinCostKFlowTarget(s, tt, k, lw, nil, nil)
				if (errE == nil) != (errT == nil) {
					t.Fatalf("seed %d k %d: err %v vs %v", seed, k, errE, errT)
				}
				if errE != nil {
					continue
				}
				we := fe.Weight(g, func(e graph.Edge) int64 { return lw.Of(e.Cost, e.Delay) })
				wt := ft.Weight(g, func(e graph.Edge) int64 { return lw.Of(e.Cost, e.Delay) })
				if we != wt {
					t.Fatalf("seed %d k %d: target-stop weight %d, exact %d", seed, k, wt, we)
				}
				if fe.Value != ft.Value {
					t.Fatalf("seed %d k %d: value %d vs %d", seed, k, ft.Value, fe.Value)
				}
			}
		}
	}
}

// TestKFlowSolverReuseIsClean reruns the same solve on a reused solver and
// checks the second answer matches the first (scratch resets fully).
func TestKFlowSolverReuseIsClean(t *testing.T) {
	g, s, tt := randomFlowGraph(99, 24, 80, 4)
	kf := flow.NewKFlowSolver(graph.NewCSR(g))
	f1, err1 := kf.MinCostKFlow(s, tt, 3, shortest.LinCost, nil, nil)
	// An interleaved different-weight solve dirties every scratch array.
	if _, err := kf.MinCostKFlowTarget(s, tt, 4, shortest.LinDelay, nil, nil); err != nil {
		t.Fatalf("interleaved solve: %v", err)
	}
	f2, err2 := kf.MinCostKFlow(s, tt, 3, shortest.LinCost, nil, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs %v %v", err1, err2)
	}
	ids1, ids2 := sortedIDs(f1), sortedIDs(f2)
	if len(ids1) != len(ids2) {
		t.Fatalf("reuse drift: %d vs %d edges", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("reuse drift at %d: %d vs %d", i, ids1[i], ids2[i])
		}
	}
}

// TestKFlowSolverRefusesFlippedView: the solver reads InRow, which only a
// never-flipped view holds, so it must refuse a view that was ever flipped
// — even one whose every edge has been flipped back.
func TestKFlowSolverRefusesFlippedView(t *testing.T) {
	g, s, tt := randomFlowGraph(7, 24, 80, 4)
	c := graph.NewCSR(g)
	c.Flip(3)
	c.Flip(3)
	kf := flow.NewKFlowSolver(c)
	defer func() {
		if recover() == nil {
			t.Fatal("KFlowSolver ran on a view that was flipped and flipped back")
		}
	}()
	_, _ = kf.MinCostKFlow(s, tt, 2, shortest.LinCost, nil, nil)
}
