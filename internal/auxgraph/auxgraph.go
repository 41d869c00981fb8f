// Package auxgraph implements Algorithm 2 of the paper: the layered
// auxiliary graphs H_v^+(B) and H_v^-(B) over a residual graph G̃, in which
// accumulated residual COST is encoded as a layer index while residual
// DELAY remains the edge weight. Cycles through v in G̃ with cost in
// [0, B] (resp. [−B, 0)) appear as cycles in H_v^+(B) (resp. H_v^-(B))
// through the layer-0 (resp. layer-B) copy of v (Lemma 15).
//
// A third kind, TwoSided, tracks accumulated cost over the full range
// [−B, +B]. It subsumes both one-sided graphs and additionally represents
// cycles whose prefix cost sums leave [0, B] even though their totals stay
// inside — the one-sided constructions only capture a cycle when some
// rotation keeps prefix sums in range, which is the (implicit) regime of
// the paper's Lemma 15. The primary bicameral search uses TwoSided; the
// one-sided graphs remain for paper fidelity and the LP (6) engine.
package auxgraph

import (
	"fmt"

	"repro/internal/flow"
	"repro/internal/graph"
)

// Kind selects the auxiliary-graph flavor.
type Kind int

const (
	// Plus is H_v^+(B): layers track accumulated cost in [0, B]; wrap edges
	// v^i → v^0 close cycles of total cost +i.
	Plus Kind = iota
	// Minus is H_v^-(B): same layer rules, wrap edges v^i → v^B close
	// cycles of total cost i−B ∈ [−B, 0).
	Minus
	// TwoSided tracks accumulated cost in [−B, +B] with wrap edges
	// v^b → v^0 for every b ≠ 0.
	TwoSided
)

func (k Kind) String() string {
	switch k {
	case Plus:
		return "H+"
	case Minus:
		return "H-"
	case TwoSided:
		return "H±"
	}
	return "?"
}

// Aux is a constructed auxiliary graph with projection bookkeeping.
type Aux struct {
	// H is the layered graph. Edge delays are residual delays; edge costs
	// carry the residual cost for bookkeeping (wrap edges are (0,0)).
	H *graph.Digraph
	// CSR is H packed once for the negative-cycle kernels. H is built by
	// AddEdge alone and never flipped, so its rows list edges in exactly
	// H.Out order and a CSR search visits edges as one over H would.
	CSR *graph.CSR
	// Base is the residual graph the layers were built over.
	Base *graph.Digraph
	// V is the anchor vertex whose copies carry wrap edges.
	V graph.NodeID
	// B is the cost budget.
	B int64
	// Kind records the flavor.
	Kind Kind

	resEdge []graph.EdgeID // per H edge: base edge ID, or -1 for wrap edges
	lo      int64          // lowest layer value (0 or −B)
	layers  int64          // number of layers
}

// Build constructs the auxiliary graph of the given kind. B must be ≥ 1.
// A TwoSided graph is BuildShared with the single anchor v.
func Build(base *graph.Digraph, v graph.NodeID, bound int64, kind Kind) *Aux {
	if kind == TwoSided {
		return BuildShared(base, []graph.NodeID{v}, bound)
	}
	a := layered(base, v, bound, kind)
	switch kind {
	case Plus:
		for i := int64(1); i <= bound; i++ {
			a.wrap(v, i, 0)
		}
	case Minus:
		for i := int64(0); i < bound; i++ {
			a.wrap(v, i, bound)
		}
	default:
		//lint:allow nopanic exhaustive Kind switch; unreachable
		panic("auxgraph: unknown kind")
	}
	return a.pack()
}

// BuildShared constructs a TwoSided layered graph with wrap edges at every
// anchor vertex, so a single negative-cycle detection covers all anchors at
// once (the fast path of the bicameral search). Projection semantics are
// identical to a single-anchor TwoSided graph; a.V is set to the first
// anchor for display only.
func BuildShared(base *graph.Digraph, anchors []graph.NodeID, bound int64) *Aux {
	if len(anchors) == 0 {
		//lint:allow nopanic callers derive anchors from ReversedSeeds and check emptiness first
		panic("auxgraph: no anchors")
	}
	a := layered(base, anchors[0], bound, TwoSided)
	for _, v := range anchors {
		for b := -bound; b <= bound; b++ {
			if b != 0 {
				a.wrap(v, b, 0)
			}
		}
	}
	return a.pack()
}

// layered allocates the Aux of the given kind and adds the layered copies
// of every base edge: the copy of u→v at layer l runs to layer l + c(u→v)
// whenever that layer exists. Wrap edges are left to the caller.
func layered(base *graph.Digraph, v graph.NodeID, bound int64, kind Kind) *Aux {
	if bound < 1 {
		//lint:allow nopanic B is solver-computed and ≥ 1 by construction; programmer error
		panic(fmt.Sprintf("auxgraph: budget %d < 1", bound))
	}
	a := &Aux{Base: base, V: v, B: bound, Kind: kind, layers: bound + 1}
	if kind == TwoSided {
		a.lo, a.layers = -bound, 2*bound+1
	}
	a.H = graph.New(int(a.layers) * base.NumNodes())
	for _, e := range base.EdgesView() {
		for l := a.lo; l <= a.hi(); l++ {
			nl := l + e.Cost //lint:allow weightovf layer index: |l| ≤ B and cost is MaxWeight-capped
			if nl < a.lo || nl > a.hi() {
				continue
			}
			a.H.AddEdge(a.node(e.From, l), a.node(e.To, nl), e.Cost, e.Delay)
			a.resEdge = append(a.resEdge, e.ID)
		}
	}
	return a
}

// wrap adds the zero-weight wrap edge from v's copy at layer `from` to its
// copy at layer `to`.
func (a *Aux) wrap(v graph.NodeID, from, to int64) {
	a.H.AddEdge(a.node(v, from), a.node(v, to), 0, 0)
	a.resEdge = append(a.resEdge, -1)
}

// pack freezes the finished H into its CSR view.
func (a *Aux) pack() *Aux {
	a.CSR = graph.NewCSR(a.H)
	return a
}

func (a *Aux) hi() int64 { return a.lo + a.layers - 1 }

// node maps (base vertex, layer value) to the H vertex.
func (a *Aux) node(u graph.NodeID, layer int64) graph.NodeID {
	return graph.NodeID((layer-a.lo)*int64(a.Base.NumNodes()) + int64(u))
}

// LayerNode exposes the (vertex, layer) → H-vertex mapping; ok=false if the
// layer is out of range.
func (a *Aux) LayerNode(u graph.NodeID, layer int64) (graph.NodeID, bool) {
	if layer < a.lo || layer > a.hi() {
		return 0, false
	}
	return a.node(u, layer), true
}

// Start returns the H vertex at which cycle searches are rooted: v^0 for
// Plus and TwoSided, v^B for Minus.
func (a *Aux) Start() graph.NodeID {
	if a.Kind == Minus {
		return a.node(a.V, a.B)
	}
	return a.node(a.V, 0)
}

// StartLayer returns the layer value of Start.
func (a *Aux) StartLayer() int64 {
	if a.Kind == Minus {
		return a.B
	}
	return 0
}

// CycleCostAt reports the residual cost of a cycle closed by reaching the
// copy of V at the given layer and taking its wrap edge. For Plus it is
// +layer, for Minus layer−B, for TwoSided +layer.
func (a *Aux) CycleCostAt(layer int64) int64 {
	if a.Kind == Minus {
		return layer - a.B
	}
	return layer
}

// ResEdge maps an H edge to its base (residual) edge, or -1 for wraps.
func (a *Aux) ResEdge(id graph.EdgeID) graph.EdgeID { return a.resEdge[id] }

// ProjectWalk maps a closed walk in H (edge ID sequence) down to the base
// graph, dropping wrap edges, and splits the result into vertex-simple base
// cycles. By Lemma 15, the summed cost/delay of the returned cycles equal
// the walk's accumulated residual cost/delay.
func (a *Aux) ProjectWalk(edges []graph.EdgeID) []graph.Cycle {
	var baseWalk []graph.EdgeID
	for _, id := range edges {
		if base := a.resEdge[id]; base >= 0 {
			baseWalk = append(baseWalk, base)
		}
	}
	if len(baseWalk) == 0 {
		return nil
	}
	return flow.SplitClosedWalk(a.Base, baseWalk)
}

// Project is ProjectWalk for a graph.Cycle in H.
func (a *Aux) Project(c graph.Cycle) []graph.Cycle { return a.ProjectWalk(c.Edges) }
