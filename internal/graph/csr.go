package graph

import "fmt"

// CSR is a compressed-sparse-row view of a Digraph: one packed row of edge
// IDs per vertex plus a flat array of per-edge records (Arc). It exists
// because the solver's hot kernels (Dijkstra/SPFA/Bellman–Ford sweeps,
// min-cost-flow augmentation rounds) spend their time chasing the
// Digraph's slice-of-slices adjacency, which scatters every row header
// across the heap; the CSR layout turns a row visit into a contiguous scan
// and takes solves from toy sizes to N=10⁴–10⁵.
//
// Row v lists the edges whose CURRENT tail is v, ascending by edge ID —
// exactly the sequence Digraph.Out(v) holds, since AddEdge appends in ID
// order and Digraph.FlipEdge re-inserts at sorted position. That equality
// is what keeps CSR kernels bit-identical to their Digraph counterparts.
// Each row owns a slot region sized to v's total degree (out plus in at
// construction), which bounds the row whatever orientation its incident
// edges take, so Flip moves an ID between its endpoints' rows in O(deg)
// and nothing is ever re-packed. On a never-flipped view the region's
// spare capacity holds v's reverse row instead (InRow); the first Flip
// overwrites it, which Flipped reports.
//
// Flip also swaps the edge's endpoints and negates its weights in place,
// and SetWeights patches weights in place. Each mutation bumps an epoch
// counter so callers that cache derived state (orderings, potentials) can
// detect staleness cheaply.
type CSR struct {
	n int
	// bounds interleaves the row offsets into slots: row v is
	// slots[bounds[2v]:bounds[2v+1]] and its spare capacity runs on to
	// bounds[2v+2], the next row's start. Offsets never descend.
	bounds []int32
	slots  []EdgeID
	// arcs[id] is edge id's current record.
	arcs []Arc
	// flipped reports that Flip ever ran, so the spare capacity no longer
	// holds the reverse rows.
	flipped bool
	epoch   uint64
}

// NewCSR packs the graph's current topology and weights into a CSR view.
// Cost: O(n + m), a handful of allocations, independent of later
// Flip/SetWeights traffic.
func NewCSR(g *Digraph) *CSR {
	n, m := g.NumNodes(), g.NumEdges()
	c := &CSR{
		n:      n,
		bounds: make([]int32, 2*n+1),
		slots:  make([]EdgeID, 2*m),
		arcs:   make([]Arc, m),
	}
	var o int32
	for v := 0; v < n; v++ {
		c.bounds[2*v] = o
		o += int32(copy(c.slots[o:], g.Out(NodeID(v))))
		c.bounds[2*v+1] = o
		o += int32(copy(c.slots[o:], g.In(NodeID(v))))
	}
	c.bounds[2*n] = o
	edges := g.EdgesView()
	for idx := range c.arcs {
		e, a := &edges[idx], &c.arcs[idx]
		a.Tail, a.Head, a.Cost, a.Delay = e.From, e.To, e.Cost, e.Delay
	}
	return c
}

// Arc is one edge's record in a CSR view: its CURRENT endpoints and
// weights. Flip swaps the endpoints and negates the weights. Kernels read
// the whole record at once: one bounds check and one 24-byte load per edge.
type Arc struct {
	Tail, Head  NodeID
	Cost, Delay int64
}

// NumNodes reports the number of vertices.
func (c *CSR) NumNodes() int { return c.n }

// NumEdges reports the number of edges.
func (c *CSR) NumEdges() int { return len(c.arcs) }

// Row returns the current forward row of v: the IDs of the edges whose
// current tail is v, ascending. The slice aliases the view; a Flip touching
// v invalidates it.
//
//krsp:inbounds
func (c *CSR) Row(v NodeID) []EdgeID {
	return c.slots[c.bounds[2*v]:c.bounds[2*v+1]]
}

// InRow returns the reverse row of v on a never-flipped view: the IDs of
// the edges entering v, ascending. Once Flipped, the region it reads holds
// stale entries; callers must check Flipped first.
//
//krsp:inbounds
func (c *CSR) InRow(v NodeID) []EdgeID {
	return c.slots[c.bounds[2*v+1]:c.bounds[2*v+2]]
}

// Arc returns edge id's current record.
//
//krsp:inbounds
func (c *CSR) Arc(id EdgeID) Arc { return c.arcs[id] }

// Tail returns the current source vertex of edge id.
//
//krsp:inbounds
func (c *CSR) Tail(id EdgeID) NodeID { return c.arcs[id].Tail }

// Head returns the current target vertex of edge id.
//
//krsp:inbounds
func (c *CSR) Head(id EdgeID) NodeID { return c.arcs[id].Head }

// Cost returns the current cost of edge id (negated while reversed).
//
//krsp:inbounds
func (c *CSR) Cost(id EdgeID) int64 { return c.arcs[id].Cost }

// Delay returns the current delay of edge id (negated while reversed).
//
//krsp:inbounds
func (c *CSR) Delay(id EdgeID) int64 { return c.arcs[id].Delay }

// Flipped reports whether Flip ever ran on the view — even if every edge
// has since been flipped back. Only a never-flipped view has valid InRow
// rows; kernels that need them (the min-cost flow solver) or that promise
// nonnegative weights (Dijkstra) refuse a flipped one.
func (c *CSR) Flipped() bool { return c.flipped }

// Epoch returns the mutation counter: it increments on every Flip and
// SetWeights, so cached state derived from the view can be invalidated by
// comparing epochs instead of diffing arrays.
func (c *CSR) Epoch() uint64 { return c.epoch }

// Flip reverses edge id in place — the residual-graph primitive, mirroring
// Digraph.FlipEdge: direction toggles, both weights negate, the ID stays.
// The ID leaves its old tail's row and enters its new tail's row at sorted
// position, O(deg) for the two rows touched.
//
//krsp:inbounds
func (c *CSR) Flip(id EdgeID) {
	a := &c.arcs[id]
	c.move(id, a.Tail, a.Head)
	*a = Arc{Tail: a.Head, Head: a.Tail, Cost: -a.Cost, Delay: -a.Delay}
	c.flipped = true
	c.epoch++
}

// move takes id out of row u, closing the gap, and inserts it into row w
// at its ascending position. Every edge sits in the row of its current
// tail, so the first scan finds it; row w has room, since it lists only
// edges incident to w and its region holds all of them.
//
//krsp:terminates(each scan walks one row of ≤ deg slots)
func (c *CSR) move(id EdgeID, u, w NodeID) {
	row := c.Row(u)
	i := 0
	for row[i] != id {
		i++
	}
	copy(row[i:], row[i+1:])
	c.bounds[2*u+1]--
	c.bounds[2*w+1]++
	row = c.Row(w)
	i = len(row) - 1
	for i > 0 && row[i-1] > id {
		row[i] = row[i-1]
		i--
	}
	row[i] = id
}

// SetWeights overwrites the CURRENT cost and delay of edge id in place,
// mirroring Digraph.SetEdgeWeights on the current orientation.
//
//krsp:inbounds
func (c *CSR) SetWeights(id EdgeID, cost, delay int64) {
	a := &c.arcs[id]
	a.Cost, a.Delay = cost, delay
	c.epoch++
}

// Validate checks the view against the Digraph it should currently mirror:
// same size, same per-edge endpoints and weights, every row equal to g's
// adjacency list, and — on a never-flipped view — every reverse row equal
// to g's. Tests and the residual self-heal path use it; it is O(n + m).
func (c *CSR) Validate(g *Digraph) error {
	if c.n != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		return fmt.Errorf("csr: size mismatch: view %d/%d vs graph %d/%d",
			c.n, c.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i := 0; i < c.NumEdges(); i++ {
		id := EdgeID(i)
		e, a := g.Edge(id), c.arcs[i]
		if a != (Arc{Tail: e.From, Head: e.To, Cost: e.Cost, Delay: e.Delay}) {
			return fmt.Errorf("csr: edge %d is %d→%d (%d,%d), graph has %d→%d (%d,%d)",
				id, a.Tail, a.Head, a.Cost, a.Delay, e.From, e.To, e.Cost, e.Delay)
		}
	}
	for v := 0; v < c.n; v++ {
		if err := sameRow("out", v, c.Row(NodeID(v)), g.Out(NodeID(v))); err != nil {
			return err
		}
		if !c.flipped {
			if err := sameRow("in", v, c.InRow(NodeID(v)), g.In(NodeID(v))); err != nil {
				return err
			}
		}
	}
	return nil
}

func sameRow(kind string, v int, got, want []EdgeID) error {
	if len(got) != len(want) {
		return fmt.Errorf("csr: %s row %d has %d edges, graph has %d", kind, v, len(got), len(want))
	}
	for k := range got {
		if got[k] != want[k] {
			return fmt.Errorf("csr: %s row %d diverges from graph adjacency at position %d (edge %d)", kind, v, k, got[k])
		}
	}
	return nil
}
