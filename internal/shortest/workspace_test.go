package shortest

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func randGraphWS(r *rand.Rand, n, m int, negative bool) *graph.Digraph {
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		c, d := int64(r.Intn(20)), int64(r.Intn(20))
		if negative {
			c -= 6
			d -= 6
		}
		g.AddEdge(graph.NodeID(u), graph.NodeID(v), c, d)
	}
	return g
}

func sameTree(t *testing.T, label string, a, b Tree) {
	t.Helper()
	if len(a.Dist) != len(b.Dist) {
		t.Fatalf("%s: tree sizes %d vs %d", label, len(a.Dist), len(b.Dist))
	}
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] || a.Parent[v] != b.Parent[v] {
			t.Fatalf("%s: node %d: (%d,%d) vs (%d,%d)",
				label, v, a.Dist[v], a.Parent[v], b.Dist[v], b.Parent[v])
		}
	}
}

// sameDist compares distances only: a reference with other tie-breaking
// may pick different, equally short, parent edges.
func sameDist(t *testing.T, label string, ref, got Tree) {
	t.Helper()
	if len(ref.Dist) != len(got.Dist) {
		t.Fatalf("%s: tree sizes %d vs %d", label, len(ref.Dist), len(got.Dist))
	}
	for v := range ref.Dist {
		if ref.Dist[v] != got.Dist[v] {
			t.Fatalf("%s: dist[%d] = %d, reference %d", label, v, got.Dist[v], ref.Dist[v])
		}
	}
}

// TestIntoVariantsMatchAllocating: every *_Into kernel run through ONE
// workspace reused across many graphs of varying size — the reuse pattern
// the solver's hot loops rely on — must agree exactly with the same kernel
// on a freshly allocated workspace, and the negative-cycle kernels must
// agree with the Bellman–Ford reference. Stale state from a previous
// (larger or negative-weight) search must never leak into the next result.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ws := NewWorkspace(1)
	for round := 0; round < 200; round++ {
		n := 2 + r.Intn(30)
		m := r.Intn(4 * n)
		negative := round%3 == 0
		g := randGraphWS(r, n, m, negative)
		c := graph.NewCSR(g)
		s := graph.NodeID(r.Intn(n))

		if !negative {
			want := DijkstraCSRInto(NewWorkspace(n), c, s, LinCost)
			got := DijkstraCSRInto(ws, c, s, LinCost)
			sameTree(t, "dijkstra", want, got)
			ref, _, _ := BellmanFord(g, s, CostWeight)
			sameDist(t, "dijkstra", ref, got)
		}

		wantT, wantCyc, wantOK := SPFAAllCSRInto(NewWorkspace(n), c, LinCost, nil)
		gotT, gotCyc, gotOK := SPFAAllCSRInto(ws, c, LinCost, nil)
		if wantOK != gotOK || !reflect.DeepEqual(wantCyc, gotCyc) {
			t.Fatalf("spfa: (%v,%v) vs (%v,%v)", wantOK, wantCyc.Edges, gotOK, gotCyc.Edges)
		}
		sameTree(t, "spfa", wantT, gotT)
		checkVerdict(t, "spfa", g, CostWeight, gotT, gotCyc, gotOK)

		refT, _, refOK := BellmanFordAll(g, CostWeight)
		gotT, gotCyc, gotOK = BellmanFordAllCSRInto(ws, c, LinCost, nil)
		if refOK != gotOK || refOK != wantOK {
			t.Fatalf("bfAll: ok %v vs %v (spfa %v)", refOK, gotOK, wantOK)
		}
		if refOK {
			sameTree(t, "bfAll", refT, gotT)
		}
		checkVerdict(t, "bfAll", g, CostWeight, gotT, gotCyc, gotOK)

		wantCyc, wantNeg, wantDone := SPFAAllBoundedCSRInto(NewWorkspace(n), c, LinCost, 1<<30)
		gotCyc, gotNeg, gotDone := SPFAAllBoundedCSRInto(ws, c, LinCost, 1<<30)
		if wantNeg != gotNeg || wantDone != gotDone || !reflect.DeepEqual(wantCyc, gotCyc) {
			t.Fatalf("spfaBounded: (%v,%v,%v) vs (%v,%v,%v)",
				wantNeg, wantDone, wantCyc.Edges, gotNeg, gotDone, gotCyc.Edges)
		}
		if gotNeg == refOK {
			t.Fatalf("spfaBounded: negative=%v but Bellman–Ford ok=%v", gotNeg, refOK)
		}
	}
}

// TestWorkspaceTreeAliasing documents the aliasing contract: a returned
// tree is clobbered by the next *_Into call, and Clone detaches it.
func TestWorkspaceTreeAliasing(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 5, 1)
	g.AddEdge(1, 2, 7, 1)
	ws := NewWorkspace(3)
	c := graph.NewCSR(g)
	first := DijkstraCSRInto(ws, c, 0, LinCost)
	kept := first.Clone()
	_ = DijkstraCSRInto(ws, c, 2, LinCost) // clobbers `first`
	if first.Dist[1] == kept.Dist[1] && first.Dist[0] == kept.Dist[0] {
		t.Fatal("second search did not reuse the workspace arrays")
	}
	if kept.Dist[2] != 12 || kept.Dist[1] != 5 {
		t.Fatalf("clone corrupted: %v", kept.Dist)
	}
}

// TestWorkspaceGrowPreservesHeap: the Dijkstra heap is created on first use
// only, growing must not lose queued heap items (pq.Heap.Grow keeps them),
// and repeated Grow calls must be idempotent.
func TestWorkspaceGrowPreservesHeap(t *testing.T) {
	ws := NewWorkspace(4)
	if ws.heap != nil {
		t.Fatal("NewWorkspace allocated the Dijkstra heap eagerly")
	}
	ws.dijkstraHeap(4).Push(2, 10)
	ws.Grow(64)
	h := ws.dijkstraHeap(64)
	if h.Len() != 1 || h.Cap() < 64 {
		t.Fatalf("heap lost items on grow: len=%d cap=%d", h.Len(), h.Cap())
	}
	idx, key := h.Pop()
	if idx != 2 || key != 10 {
		t.Fatalf("heap item corrupted: (%d,%d)", idx, key)
	}
	ws.Grow(8) // shrink request: no-op
	if cap(ws.dist) < 64 {
		t.Fatal("Grow shrank the workspace")
	}
}
