package flow

import (
	"fmt"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/pq"
	"repro/internal/shortest"
)

// KFlowSolver computes min-cost k-flows over a never-flipped CSR view with
// reusable scratch. Phase 1 calls min-cost flow ~10 times per solve (two
// endpoint flows plus the Lagrangian iterations) on the SAME graph; a
// solver instance hoists the potential, distance, parent and heap arrays
// out of those calls, so a call allocates only its UnitFlow result.
//
// Augmentation rounds iterate the CSR rows directly (forward arcs from
// Row, cancelling arcs from InRow, both ID-ascending), the adjacency order
// of the Digraph the view was packed from. Not safe for concurrent use; one
// solver per goroutine.
type KFlowSolver struct {
	c       *graph.CSR
	inFlow  []bool
	pot     []int64
	dist    []int64
	parent  []arc
	settled []bool
	h       *pq.Heap
	fr      *rec.Recorder
}

// SetRecorder attaches a flight recorder; each augmentation round then
// records one augment event (round index, s→t reduced distance). Nil (the
// default) records nothing and costs one dead branch per round.
func (kf *KFlowSolver) SetRecorder(r *rec.Recorder) { kf.fr = r }

// NewKFlowSolver returns a solver bound to the view. The view must never
// have been flipped, since the rounds read its InRow rows (problem graphs
// never are; the solver checks and panics to keep the contract loud).
func NewKFlowSolver(c *graph.CSR) *KFlowSolver {
	n := c.NumNodes()
	return &KFlowSolver{
		c:       c,
		inFlow:  make([]bool, c.NumEdges()),
		pot:     make([]int64, n),
		dist:    make([]int64, n),
		parent:  make([]arc, n),
		settled: make([]bool, n),
		h:       pq.New(n),
	}
}

// MinCostKFlow computes a minimum-weight integral s→t flow of value k under
// unit capacities over the solver's CSR view, by successive shortest paths
// with Johnson potentials. lw must be nonnegative on every edge. Returns
// ErrInfeasible if fewer than k edge-disjoint paths exist, and
// cancel.ErrCancelled if c stops a round.
func (kf *KFlowSolver) MinCostKFlow(s, t graph.NodeID, k int, lw shortest.LinWeight, m *obs.FlowMetrics, c *cancel.Canceller) (UnitFlow, error) {
	return kf.run(s, t, k, lw, m, c, false)
}

// MinCostKFlowTarget is MinCostKFlow with target-stopped Dijkstra rounds:
// each augmentation stops as soon as t settles and repairs potentials with
// pot'[v] = pot[v] + min(dist[v], dist[t]) — the standard early-exit for
// successive shortest paths, still EXACT (every augmenting path is a true
// shortest path; reduced weights stay nonnegative under the capped repair).
// Roughly halves per-round work on large instances. Tie-broken flows may
// differ from MinCostKFlow's, so only value-level guarantees (optimal
// weight, feasibility verdicts) are preserved — the scaled phase-1 kernel
// is its only solve-path caller.
func (kf *KFlowSolver) MinCostKFlowTarget(s, t graph.NodeID, k int, lw shortest.LinWeight, m *obs.FlowMetrics, c *cancel.Canceller) (UnitFlow, error) {
	return kf.run(s, t, k, lw, m, c, true)
}

func (kf *KFlowSolver) run(s, t graph.NodeID, k int, lw shortest.LinWeight, m *obs.FlowMetrics, c *cancel.Canceller, targetStop bool) (UnitFlow, error) {
	if k < 0 {
		return UnitFlow{}, fmt.Errorf("flow: negative k=%d", k)
	}
	cs := kf.c
	if cs.Flipped() {
		//lint:allow nopanic solver contract: flipping the view mid-use is a programming error, not runtime input
		panic("flow: KFlowSolver used on a flipped CSR view")
	}
	var rounds, relaxed int64
	n := cs.NumNodes()
	inFlow := kf.inFlow[:cs.NumEdges()]
	for i := range inFlow {
		inFlow[i] = false
	}
	// Initial potentials: one full round with zero potentials and no flow
	// is a plain Dijkstra under lw (weights nonnegative). It is not an
	// augmentation, so its relaxations are not counted, and it runs to
	// completion whatever the canceller says.
	pot, dist := kf.pot[:n], kf.dist[:n]
	for v := range pot {
		pot[v] = 0
	}
	kf.search(s, t, lw, nil, false)
	copy(pot, dist)

	for it := 0; it < k; it++ {
		if pot[s] == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		r, ok := kf.search(s, t, lw, c, targetStop)
		relaxed += r
		if !ok {
			recordFlow(m, rounds, relaxed, false)
			return UnitFlow{}, cancel.ErrCancelled
		}
		if dist[t] == shortest.Inf {
			recordFlow(m, rounds, relaxed, true)
			return UnitFlow{}, ErrInfeasible
		}
		rounds++
		kf.fr.Record(rec.KindAugment, rounds, dist[t], 0, 0)
		kf.augmentAlong(s, t)
		if targetStop {
			// Capped repair: pot'[v] = pot[v] + min(dist[v], dist[t]) keeps
			// every residual reduced weight nonnegative without requiring the
			// round to settle the whole graph.
			dt := dist[t]
			for v := range pot {
				if pot[v] == shortest.Inf {
					continue
				}
				if dist[v] < dt {
					pot[v] += dist[v] //lint:allow weightovf potentials accumulate <=k reduced path sums, each under n*MaxWeight < 2^47
				} else {
					pot[v] += dt
				}
			}
		} else {
			// pot'[v] = pot[v] + dist[v]; vertices unreached this round stay
			// unreachable under reduced weights in later rounds: mark Inf.
			for v := range pot {
				if pot[v] == shortest.Inf {
					continue
				}
				if dist[v] == shortest.Inf {
					pot[v] = shortest.Inf
				} else {
					pot[v] += dist[v] //lint:allow weightovf potentials accumulate <=k reduced path sums, each under n*MaxWeight < 2^47
				}
			}
		}
	}

	set := graph.NewEdgeSet()
	for id, used := range inFlow {
		if used {
			set.Add(graph.EdgeID(id))
		}
	}
	recordFlow(m, rounds, relaxed, false)
	return UnitFlow{Edges: set, Value: k}, nil
}

// search is one successive-shortest-path round: Dijkstra from s over the
// residual structure of the current flow (unused edges forward, used edges
// backward with negated weight) under the reduced weight
// w + pot[u] − pot[v], where vertices with pot = Inf count as removed. It
// leaves reduced distances in kf.dist and shortest-path arcs in kf.parent,
// stopping as soon as t settles when targetStop is set. It returns the
// number of improving relaxations, and ok=false if c stopped the round.
//
//krsp:terminates(each vertex settles once and the heap holds ≤ m entries)
func (kf *KFlowSolver) search(s, t graph.NodeID, lw shortest.LinWeight, c *cancel.Canceller, targetStop bool) (relaxed int64, ok bool) {
	cs := kf.c
	n := cs.NumNodes()
	inFlow, pot := kf.inFlow[:cs.NumEdges()], kf.pot[:n]
	dist, parent, settled, h := kf.dist[:n], kf.parent[:n], kf.settled[:n], kf.h
	for v := range dist {
		dist[v] = shortest.Inf
		parent[v] = arc{edge: -1}
		settled[v] = false
	}
	dist[s] = 0
	h.Reset()
	h.Push(int(s), 0)
	for h.Len() > 0 {
		if c.Poll() {
			return relaxed, false
		}
		ui, du := h.Pop()
		u := graph.NodeID(ui)
		if settled[u] {
			continue
		}
		settled[u] = true
		if targetStop && u == t {
			break
		}
		for _, id := range cs.Row(u) {
			if inFlow[id] {
				continue
			}
			a := cs.Arc(id)
			to := a.Head
			if settled[to] || pot[to] == shortest.Inf {
				continue
			}
			rw := lw.Of(a.Cost, a.Delay) + pot[u] - pot[to]
			if rw < 0 {
				//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
				panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
			}
			if nd := du + rw; nd < dist[to] {
				dist[to] = nd
				parent[to] = arc{edge: id, fwd: true}
				h.Push(int(to), nd)
				relaxed++
			}
		}
		for _, id := range cs.InRow(u) {
			if !inFlow[id] {
				continue
			}
			a := cs.Arc(id)
			to := a.Tail
			if settled[to] || pot[to] == shortest.Inf {
				continue
			}
			rw := -lw.Of(a.Cost, a.Delay) + pot[u] - pot[to]
			if rw < 0 {
				//lint:allow nopanic potential-validity invariant; a violation is a solver bug, not bad input
				panic(fmt.Sprintf("flow: negative reduced weight %d", rw))
			}
			if nd := du + rw; nd < dist[to] {
				dist[to] = nd
				parent[to] = arc{edge: id, fwd: false}
				h.Push(int(to), nd)
				relaxed++
			}
		}
	}
	return relaxed, true
}

// augmentAlong flips flow along the parent chain of the last search from t
// back to s, pushing on forward arcs and cancelling on backward ones.
//
//krsp:terminates(the parent array encodes a simple chain from t to s, ≤ n edges)
func (kf *KFlowSolver) augmentAlong(s, t graph.NodeID) {
	v := t
	for v != s {
		a := kf.parent[v]
		if a.fwd {
			kf.inFlow[a.edge] = true
			v = kf.c.Tail(a.edge)
		} else {
			kf.inFlow[a.edge] = false
			v = kf.c.Head(a.edge)
		}
	}
}
