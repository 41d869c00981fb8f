package shortest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// mirrorPair builds a seeded random multigraph, flips a subset of its edges
// in both representations (Digraph sorted re-insertion vs CSR rev bits), and
// returns the pair. Weights land in [-25, 25) after flips — the residual
// shape the solve-path kernels actually see.
func mirrorPair(t *testing.T, seed int64, n, m, flips int) (*graph.Digraph, *graph.CSR) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		for v == u {
			v = graph.NodeID(rng.Intn(n))
		}
		g.AddEdge(u, v, int64(rng.Intn(25)), int64(rng.Intn(25)))
	}
	c := graph.NewCSR(g)
	for i := 0; i < flips; i++ {
		id := graph.EdgeID(rng.Intn(m))
		g.FlipEdge(id)
		c.Flip(id)
	}
	if err := c.Validate(g); err != nil {
		t.Fatalf("mirror pair diverged: %v", err)
	}
	return g, c
}

// checkNegCycleVerdict runs the CSR all-sources SPFA on c and checks it
// against the Digraph reference BellmanFordAll on g (the graph c mirrors)
// under the masked weight w: the verdicts must agree, a returned cycle must
// be a vertex-simple cycle of g that is negative under w, and without one
// the distances must be feasible potentials under w.
func checkNegCycleVerdict(t *testing.T, label string, ws *Workspace, g *graph.Digraph, c *graph.CSR, w Weight, lw LinWeight, alive []bool) {
	t.Helper()
	_, _, wantOK := BellmanFordAll(g, w)
	tr, cyc, ok := SPFAAllCSRInto(ws, c, lw, alive)
	if ok != wantOK {
		t.Fatalf("%s: SPFA verdict ok=%v, Bellman–Ford ok=%v", label, ok, wantOK)
	}
	checkVerdict(t, label, g, w, tr, cyc, ok)
}

// checkVerdict checks one negative-cycle verdict under w: a cycle must be
// vertex-simple and negative, and "no cycle" must come with feasible
// potentials, dist[v] ≤ dist[u] + w(u→v) on every edge.
func checkVerdict(t *testing.T, label string, g *graph.Digraph, w Weight, tr Tree, cyc graph.Cycle, ok bool) {
	t.Helper()
	if !ok {
		if err := cyc.Validate(g, true); err != nil {
			t.Fatalf("%s: invalid cycle: %v", label, err)
		}
		var sum int64
		for _, id := range cyc.Edges {
			sum += w(g.Edge(id))
		}
		if sum >= 0 {
			t.Fatalf("%s: cycle weight %d is not negative", label, sum)
		}
		return
	}
	for _, e := range g.EdgesView() {
		if tr.Dist[e.To] > tr.Dist[e.From]+w(e) {
			t.Fatalf("%s: edge %d (%d→%d) violates the potentials: %d > %d + %d",
				label, e.ID, e.From, e.To, tr.Dist[e.To], tr.Dist[e.From], w(e))
		}
	}
}

// TestSPFAAllCSRMatchesDigraph drives the CSR all-sources SPFA over flipped
// views against the Digraph Bellman–Ford reference, over many seeds,
// weights and mask states (a masked edge weighs the sentinel).
func TestSPFAAllCSRMatchesDigraph(t *testing.T) {
	ws := NewWorkspace(1)
	for seed := int64(0); seed < 25; seed++ {
		g, c := mirrorPair(t, seed, 20, 60, int(seed%7)*4)
		q, p := int64(seed%5)-2, int64(seed%3)+1
		w := Combine(q, p)
		lw := LinCombine(q, p)

		var alive []bool
		wMasked := w
		if seed%2 == 0 {
			alive = make([]bool, g.NumEdges())
			rng := rand.New(rand.NewSource(seed + 1000))
			for i := range alive {
				alive[i] = rng.Intn(4) != 0
			}
			al := alive
			wMasked = func(e graph.Edge) int64 {
				if !al[e.ID] {
					return maskedW
				}
				return w(e)
			}
		}
		checkNegCycleVerdict(t, fmt.Sprintf("seed %d", seed), ws, g, c, wMasked, lw, alive)
	}
}

// TestBellmanFordAllCSRMatchesDigraph: the pass-based CSR kernel scans
// edges exactly as the Digraph reference does, so trees, verdicts and
// extracted cycles are bit-identical.
func TestBellmanFordAllCSRMatchesDigraph(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, c := mirrorPair(t, seed+100, 15, 45, int(seed%5)*3)
		td, cycD, okD := BellmanFordAll(g, Combine(1, -1))
		tc, cycC, okC := BellmanFordAllCSRInto(NewWorkspace(g.NumNodes()), c, LinCombine(1, -1), nil)
		if okD != okC {
			t.Fatalf("seed %d: verdict %v vs %v", seed, okD, okC)
		}
		sameTree(t, "bf", td, tc)
		if !reflect.DeepEqual(cycD, cycC) {
			t.Fatalf("seed %d: cycles %v vs %v", seed, cycD.Edges, cycC.Edges)
		}
	}
}

// TestDijkstraCSRMatchesDigraph checks Dijkstra over never-flipped views
// against the Digraph Bellman–Ford reference — equal distances, and every
// parent edge tight — and checks that a flipped view, a residual graph
// rather than a problem graph, is refused loudly.
func TestDijkstraCSRMatchesDigraph(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g, c := mirrorPair(t, seed+200, 20, 70, 0)
		s := graph.NodeID(seed % 20)
		ws := NewWorkspace(g.NumNodes())
		tc := DijkstraCSRInto(ws, c, s, LinCost)
		ref, _, ok := BellmanFord(g, s, CostWeight)
		if !ok {
			t.Fatalf("seed %d: Bellman–Ford found a negative cycle in a nonnegative graph", seed)
		}
		sameDist(t, fmt.Sprintf("seed %d", seed), ref, tc)
		for v, id := range tc.Parent {
			if id < 0 {
				continue
			}
			e := g.Edge(id)
			if int(e.To) != v || tc.Dist[e.From]+e.Cost != tc.Dist[v] {
				t.Fatalf("seed %d: parent edge %d of %d is not tight", seed, id, v)
			}
		}

		c.Flip(graph.EdgeID(seed % 70))
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("seed %d: Dijkstra accepted a flipped view", seed)
				}
			}()
			DijkstraCSRInto(ws, c, s, LinCost)
		}()
	}
}

func TestLinWeightMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		q := rng.Int63n(1<<31) - (1 << 30)
		p := rng.Int63n(1<<31) - (1 << 30)
		cost := rng.Int63n(1<<31) - (1 << 30)
		delay := rng.Int63n(1<<31) - (1 << 30)
		e := graph.Edge{Cost: cost, Delay: delay}
		if got, want := LinCombine(q, p).Of(cost, delay), Combine(q, p)(e); got != want {
			t.Fatalf("q=%d p=%d c=%d d=%d: %d vs %d", q, p, cost, delay, got, want)
		}
	}
}
