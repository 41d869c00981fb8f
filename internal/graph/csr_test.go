package graph

import (
	"math/rand"
	"testing"
)

// randomDigraph builds a seeded multigraph with parallel edges and a few
// self-loop-free random arcs, mirroring the shapes residual graphs take.
func randomDigraph(seed int64, n, m int) *Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < m; i++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		for v == u {
			v = NodeID(rng.Intn(n))
		}
		g.AddEdge(u, v, int64(rng.Intn(50)), int64(rng.Intn(50)))
	}
	return g
}

func TestCSRMirrorsFreshGraph(t *testing.T) {
	g := randomDigraph(1, 40, 200)
	c := NewCSR(g)
	if err := c.Validate(g); err != nil {
		t.Fatalf("fresh CSR: %v", err)
	}
	if c.Flipped() {
		t.Fatalf("fresh CSR reports Flipped")
	}
	if c.Epoch() != 0 {
		t.Fatalf("fresh CSR epoch = %d, want 0", c.Epoch())
	}
}

// TestCSRFlipTracksDigraph drives the same random flip sequence through a
// Digraph and its CSR view (both re-insert at sorted position) and checks
// the CSR rows stay bit-identical to the Digraph adjacency — the property
// every residual-path kernel relies on.
func TestCSRFlipTracksDigraph(t *testing.T) {
	g := randomDigraph(2, 30, 150)
	c := NewCSR(g)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 400; step++ {
		id := EdgeID(rng.Intn(g.NumEdges()))
		g.FlipEdge(id)
		c.Flip(id)
		if step%37 == 0 {
			if err := c.Validate(g); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := c.Validate(g); err != nil {
		t.Fatalf("final: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("digraph corrupted: %v", err)
	}
}

func TestCSRFlipIsInvolutive(t *testing.T) {
	g := randomDigraph(3, 10, 40)
	c := NewCSR(g)
	c.Flip(5)
	if !c.Flipped() {
		t.Fatalf("flip not recorded")
	}
	e := g.Edge(5)
	if c.Tail(5) != e.To || c.Head(5) != e.From || c.Cost(5) != -e.Cost || c.Delay(5) != -e.Delay {
		t.Fatalf("flip mismatch: %d→%d (%d,%d)", c.Tail(5), c.Head(5), c.Cost(5), c.Delay(5))
	}
	c.Flip(5)
	if c.Tail(5) != e.From || c.Head(5) != e.To || c.Cost(5) != e.Cost || c.Delay(5) != e.Delay {
		t.Fatalf("double flip should restore orientation: %d→%d (%d,%d)", c.Tail(5), c.Head(5), c.Cost(5), c.Delay(5))
	}
	if !c.Flipped() {
		t.Fatalf("double flip cleared Flipped; the reverse rows are gone")
	}
	if err := c.Validate(g); err != nil {
		t.Fatalf("after double flip: %v", err)
	}
}

func TestCSREpochAndSetWeights(t *testing.T) {
	g := randomDigraph(4, 10, 40)
	c := NewCSR(g)
	e0 := c.Epoch()
	c.Flip(0)
	if c.Epoch() != e0+1 {
		t.Fatalf("epoch after flip = %d, want %d", c.Epoch(), e0+1)
	}
	c.SetWeights(1, 99, -3)
	if c.Epoch() != e0+2 {
		t.Fatalf("epoch after SetWeights = %d, want %d", c.Epoch(), e0+2)
	}
	if c.Cost(1) != 99 || c.Delay(1) != -3 {
		t.Fatalf("SetWeights not applied: (%d,%d)", c.Cost(1), c.Delay(1))
	}
	g.FlipEdge(0)
	g.SetEdgeWeights(1, 99, -3)
	if err := c.Validate(g); err != nil {
		t.Fatalf("after patching both: %v", err)
	}
}

func TestCSRValidateDetectsDrift(t *testing.T) {
	g := randomDigraph(5, 10, 40)
	c := NewCSR(g)
	g.FlipEdge(2) // mutate the graph only: the view is now stale
	if err := c.Validate(g); err == nil {
		t.Fatalf("Validate missed a stale view")
	}
}

// TestCSRRowsAfterEveryFlip is the row-layout property: after every flip of
// a random sequence (self-loops and parallel edges included), each Row(v)
// equals Digraph.Out(v) exactly, and each row stays inside its vertex's
// slot region. Before the first flip, InRow(v) equals Digraph.In(v).
func TestCSRRowsAfterEveryFlip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := New(n)
		for i, m := 0, rng.Intn(6*n); i < m; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), int64(rng.Intn(9)), int64(rng.Intn(9)))
		}
		c := NewCSR(g)
		for v := 0; v < n; v++ {
			if err := sameRow("in", v, c.InRow(NodeID(v)), g.In(NodeID(v))); err != nil {
				t.Fatalf("seed %d, never flipped: %v", seed, err)
			}
		}
		if g.NumEdges() == 0 {
			continue
		}
		for step := 0; step < 300; step++ {
			id := EdgeID(rng.Intn(g.NumEdges()))
			g.FlipEdge(id)
			c.Flip(id)
			for v := 0; v < n; v++ {
				if err := sameRow("out", v, c.Row(NodeID(v)), g.Out(NodeID(v))); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if c.bounds[2*v] > c.bounds[2*v+1] || c.bounds[2*v+1] > c.bounds[2*v+2] {
					t.Fatalf("seed %d step %d: row %d bounds %v out of order", seed, step, v, c.bounds[2*v:2*v+3])
				}
			}
		}
		if err := c.Validate(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
