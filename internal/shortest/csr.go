package shortest

import (
	"repro/internal/graph"
)

// LinWeight is a linear edge weighting q·cost + p·delay in packed form.
// Every weighting the solver routes on is linear in (cost, delay) — cost,
// delay, the Lagrangian combinations Combine(q, p), and the bicameral
// lexicographic weights — so CSR kernels take a LinWeight instead of a
// Weight closure: two multiplies against the packed arrays replace an
// indirect call per edge, and two's-complement distributivity makes the
// evaluation bitwise identical to the closure it replaces even at the
// overflow margins the masking sentinel lives near.
type LinWeight struct {
	Q int64 // cost coefficient
	P int64 // delay coefficient
}

// Of evaluates the weighting on an edge's (cost, delay).
func (lw LinWeight) Of(cost, delay int64) int64 {
	return lw.Q*cost + lw.P*delay //lint:allow weightovf exact λ=p/q search; callers keep |p|,|q|·MaxWeight in range
}

// LinCost and LinDelay are the CSR counterparts of CostWeight/DelayWeight.
var (
	LinCost  = LinWeight{Q: 1}
	LinDelay = LinWeight{P: 1}
)

// LinCombine is the CSR counterpart of Combine: q·cost + p·delay.
func LinCombine(q, p int64) LinWeight { return LinWeight{Q: q, P: p} }

// maskedW is the sentinel weight of an excluded edge, matching the
// bicameral engine's masking trick: with all-sources detection every
// tentative distance is ≤ 0 and only decreases, so du + maskedW > 0 can
// never win a relaxation and the edge is effectively deleted without
// touching the graph. Callers guarantee |du| < 2^61 so the sum cannot wrap.
const maskedW = int64(1) << 62

func defaultBudget(c *graph.CSR) int {
	return 4*c.NumNodes()*c.NumEdges() + 256
}

// DijkstraCSRInto computes shortest paths from s under lw over a
// never-flipped CSR view and caller-provided scratch, relaxing each row in
// ascending edge-ID order. All selected weights must be nonnegative; it
// panics on a negative weight, which would silently produce wrong answers,
// and on a Flipped view, which is a residual graph, not a problem graph.
// The returned Tree aliases the workspace (see Workspace).
//
//krsp:noalloc
//krsp:terminates(each vertex finalizes once and the heap holds ≤ m entries)
//krsp:inbounds
func DijkstraCSRInto(ws *Workspace, c *graph.CSR, s graph.NodeID, lw LinWeight) Tree {
	if c.Flipped() {
		//lint:allow nopanic kernel contract: Dijkstra runs on problem graphs, never on a flipped residual view
		panic("shortest: DijkstraCSRInto on a flipped CSR view")
	}
	n := c.NumNodes()
	t := ws.tree(n)
	done := ws.done[:n] //lint:allow boundsafe ws.tree(n) grows ws.done to n alongside the tree arrays
	for v := range t.Dist {
		t.Dist[v] = Inf
		t.Parent[v] = -1 //lint:allow boundsafe ws.tree(n) sizes Dist and Parent to the same length
		done[v] = false  //lint:allow boundsafe ws.tree(n) grows ws.done to n alongside the tree arrays
	}
	t.Dist[s] = 0
	h := ws.dijkstraHeap(n)
	h.Reset()
	h.Push(int(s), 0)
	for h.Len() > 0 {
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		if done[u] {
			continue
		}
		done[u] = true
		for _, id := range c.Row(u) {
			a := c.Arc(id)
			to := a.Head
			if done[to] {
				continue
			}
			rw := lw.Of(a.Cost, a.Delay)
			if rw < 0 {
				//lint:allow nopanic nonnegative-weight contract; a violation is a solver bug, not bad input
				panic("shortest: negative weight in DijkstraCSRInto")
			}
			if nd := du + rw; nd < t.Dist[to] {
				t.Dist[to] = nd
				t.Parent[to] = id
				h.Push(int(to), nd)
			}
		}
	}
	return t
}

// SPFAAllCSRInto is negative-cycle detection over a CSR view from a virtual
// super-source (all distances start at 0) under lw, with an optional mask —
// edges whose alive entry is false are weighted by the masking sentinel and
// can never relax (a nil mask keeps every edge). It returns ok=false with a
// vertex-simple negative cycle, or ok=true with distances that are valid
// potentials: dist[v] ≤ dist[u] + w(u→v) for every live edge. When the
// relaxation budget blows without a verdict it falls back to the pass-based
// BellmanFordAllCSRInto, which always terminates with a proof; a cancelled
// run reports the conservative "no cycle" (see Workspace.SetCancel).
//
//krsp:noalloc
//krsp:inbounds
func SPFAAllCSRInto(ws *Workspace, c *graph.CSR, lw LinWeight, alive []bool) (Tree, graph.Cycle, bool) {
	tree, cyc, ok, done := spfaCSRCore(ws, c, lw, alive, ws.zeroTree(c.NumNodes()), defaultBudget(c))
	if done {
		return tree, cyc, ok
	}
	if ws.cancel.Stopped() {
		return tree, graph.Cycle{}, true // cancelled: see Workspace.SetCancel
	}
	return BellmanFordAllCSRInto(ws, c, lw, alive)
}

// SPFAAllBoundedCSRInto is negative-cycle detection over a CSR view with a
// caller-given relaxation budget and no exact-distance promise: it returns
// (cycle, true, true) on detection, (_, false, true) when the view is
// certified cycle-free, and (_, false, false) when the budget ran out or the
// workspace's Canceller stopped first (no verdict). There is no Bellman–Ford
// fallback, so large derived graphs (the layered auxiliary graphs) keep
// worst-case time linear in the budget instead of O(V·E).
//
//krsp:noalloc
//krsp:inbounds
func SPFAAllBoundedCSRInto(ws *Workspace, c *graph.CSR, lw LinWeight, budget int) (graph.Cycle, bool, bool) {
	_, cyc, ok, done := spfaCSRCore(ws, c, lw, nil, ws.zeroTree(c.NumNodes()), budget)
	if !done {
		return graph.Cycle{}, false, false
	}
	return cyc, !ok, true
}

// spfaCSRCore is the queue-based Bellman–Ford variant (SPFA) seeded with
// every vertex, scanning each dequeued vertex's current row (ascending edge
// IDs, flipped edges included). After every n improving relaxations it
// scans the parent graph for a cycle (Cherkassky–Goldberg's amortised
// walk-to-root check, O(1) per relaxation): every parent update is a
// strict decrease, so every parent-graph cycle is negative, and masked
// edges never become parents. If a negative cycle exists, the parent graph
// keeps one once some distance drops below every simple path's weight, so
// a scan finds it. It returns done=false when its relaxation budget is
// exhausted or its Canceller stops before a certified verdict; callers then
// fall back to the pass-based scan or accept the non-verdict.
//
//krsp:inbounds
func spfaCSRCore(ws *Workspace, c *graph.CSR, lw LinWeight, alive []bool, t Tree, budget int) (Tree, graph.Cycle, bool, bool) {
	n := c.NumNodes()
	if n == 0 {
		ws.recordSPFA(0, false)
		return t, graph.Cycle{}, true, true
	}
	next, stamp := ws.resetFlags(n)
	head, tail := graph.NodeID(0), graph.NodeID(n-1)
	relaxations, walk, untilScan := 0, 0, n
	for head != queueEnd {
		if ws.cancel.Poll() {
			// Cancelled: no verdict. Callers distinguish this from budget
			// exhaustion via Canceller.Stopped (see Workspace.SetCancel).
			ws.recordSPFA(relaxations, false)
			return t, graph.Cycle{}, false, false
		}
		u := head
		head = next[u]
		next[u] = notQueued
		du := t.Dist[u]
		if du == Inf {
			continue
		}
		for _, id := range c.Row(u) {
			a := c.Arc(id)
			w := lw.Of(a.Cost, a.Delay)
			if alive != nil && !alive[id] {
				w = maskedW
			}
			to := a.Head
			if nd := du + w; nd < t.Dist[to] {
				budget--
				relaxations++
				if budget < 0 {
					ws.recordSPFA(relaxations, false)
					return t, graph.Cycle{}, false, false
				}
				t.Dist[to] = nd
				t.Parent[to] = id
				if untilScan--; untilScan == 0 {
					untilScan = n
					if at, cyclic := parentCycle(c, t.Parent, stamp, &walk); cyclic {
						ws.recordSPFA(relaxations, true)
						return t, extractParentCycleCSR(c, t.Parent, at), false, true
					}
				}
				if next[to] == notQueued {
					next[to] = queueEnd
					if head == queueEnd {
						head = to
					} else {
						next[tail] = to
					}
					tail = to
				}
			}
		}
	}
	ws.recordSPFA(relaxations, false)
	return t, graph.Cycle{}, true, true
}

// BellmanFordAllCSRInto is the pass-based Bellman–Ford over a CSR view from
// the virtual super-source, with the same optional mask and verdict
// contract as SPFAAllCSRInto. The per-pass edge scan walks IDs ascending in
// current orientation, exactly as BellmanFordAll scans a Digraph.
//
//krsp:noalloc
//krsp:inbounds
func BellmanFordAllCSRInto(ws *Workspace, c *graph.CSR, lw LinWeight, alive []bool) (Tree, graph.Cycle, bool) {
	n := c.NumNodes()
	t := ws.zeroTree(n)
	m := c.NumEdges()
	var lastRelaxed graph.NodeID = -1
	for pass := 0; pass < n; pass++ {
		if ws.cancel.Check() {
			return t, graph.Cycle{}, true // cancelled: conservative "no cycle"
		}
		changed := false
		for i := 0; i < m; i++ {
			id := graph.EdgeID(i)
			a := c.Arc(id)
			if t.Dist[a.Tail] == Inf {
				continue
			}
			w := lw.Of(a.Cost, a.Delay)
			if alive != nil && !alive[id] {
				w = maskedW
			}
			if nd := t.Dist[a.Tail] + w; nd < t.Dist[a.Head] { //lint:allow weightovf finite Dist is a <=n-1 edge path sum and |du| < 2^61 under masking, so nd cannot wrap
				to := a.Head
				t.Dist[to] = nd
				t.Parent[to] = id
				changed = true
				lastRelaxed = to
			}
		}
		if !changed {
			return t, graph.Cycle{}, true
		}
	}
	v := lastRelaxed
	for i := 0; i < n; i++ {
		v = c.Tail(t.Parent[v])
	}
	return t, extractParentCycleCSR(c, t.Parent, v), false
}

// parentCycle scans the parent graph for a cycle and returns a vertex on
// one. For each vertex in ascending ID order not yet stamped by this scan,
// it walks rootward stamping with a fresh walk id; the first walk that
// meets its own stamp has closed a cycle at the vertex it met. *walk is the
// last walk id issued in this run, so stamps from earlier scans read as
// unstamped.
//
//krsp:terminates(each vertex is stamped once per scan: ≤ 2n steps)
func parentCycle(c *graph.CSR, parent []graph.EdgeID, stamp []int, walk *int) (graph.NodeID, bool) {
	first := *walk + 1
	for s := range stamp {
		if stamp[s] >= first {
			continue
		}
		*walk++
		v := graph.NodeID(s)
		for stamp[v] < first {
			stamp[v] = *walk
			if parent[v] < 0 {
				break
			}
			v = c.Tail(parent[v])
			if stamp[v] == *walk {
				return v, true
			}
		}
	}
	return 0, false
}

// extractParentCycleCSR is extractParentCycle over a CSR view.
//
//krsp:terminates(parent-pointer cycle is vertex-simple, so the walk closes within n steps)
func extractParentCycleCSR(c *graph.CSR, parent []graph.EdgeID, start graph.NodeID) graph.Cycle {
	var revEdges []graph.EdgeID
	v := start
	for {
		id := parent[v]
		//lint:allow contracts cold path: runs once per extracted cycle, ≤ n appends; counted in the bench-guard alloc budget
		revEdges = append(revEdges, id)
		v = c.Tail(id)
		if v == start {
			break
		}
	}
	for i, j := 0, len(revEdges)-1; i < j; i, j = i+1, j-1 {
		revEdges[i], revEdges[j] = revEdges[j], revEdges[i]
	}
	return graph.Cycle{Edges: revEdges}
}
