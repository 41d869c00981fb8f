package core

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/cancel"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/shortest"
)

// Phase1Stats instruments the Lagrangian search. JSON tags are part of the
// daemon response schema (see Stats).
type Phase1Stats struct {
	// LambdaIterations counts multiplier updates.
	LambdaIterations int `json:"lambdaIterations"`
	// CLPNum/CLPDen is the exact rational LP lower bound C_LP = L(λ*).
	CLPNum int64 `json:"clpNum"`
	CLPDen int64 `json:"clpDen"`
}

// Phase1Result is the Lemma 5 outcome: two integral k-flows sandwiching
// the delay bound whose convex combination is LP-optimal.
type Phase1Result struct {
	// Lo is a feasible flow (delay ≤ D); Hi violates the bound (delay > D)
	// unless Exact, in which case Hi equals Lo.
	Lo, Hi flow.UnitFlow
	// Exact reports that Lo is exactly optimal (unconstrained min-cost
	// flow met the bound; no Lagrangian search was needed).
	Exact bool
	// CLP is the LP lower bound as an exact rational; CLPFloor/CLPCeil are
	// integer conveniences with ⌈C_LP⌉ ≤ C_OPT (costs are integral).
	CLP     *big.Rat
	CLPCeil int64
	// Degraded reports that a cancellation stopped the Lagrangian search
	// before λ* was certified. Lo/Hi still straddle the bound and CLP is
	// still a valid lower bound (every dual value is, by weak duality) —
	// it just may be weaker than the true C_LP.
	Degraded bool
	Stats    Phase1Stats
	// view is the never-flipped CSR of the instance graph the search ran
	// on; the cancellation phase builds its residual on it instead of
	// packing a second one.
	view *graph.CSR
}

// ChooseByPotential returns the flow minimizing φ(f) = c(f)/C_LP + d(f)/D
// among Lo and Hi — the Lemma 5 selection — using exact big-rational
// arithmetic. By LP optimality min(φ) ≤ 2.
func (p Phase1Result) ChooseByPotential(g *graph.Digraph, bound int64) flow.UnitFlow {
	if p.Exact || p.CLP.Sign() == 0 {
		// With C_LP = 0 the cost ratio is meaningless; Lo is feasible and
		// cost-degenerate instances are solved by it directly.
		return p.Lo
	}
	phi := func(f flow.UnitFlow) *big.Rat {
		c := new(big.Rat).SetInt64(f.Cost(g))
		d := new(big.Rat).SetInt64(f.Delay(g))
		out := new(big.Rat).Quo(c, p.CLP)
		return out.Add(out, d.Quo(d, new(big.Rat).SetInt64(bound)))
	}
	if phi(p.Lo).Cmp(phi(p.Hi)) <= 0 {
		return p.Lo
	}
	return p.Hi
}

// Phase1 runs the first phase (Lemma 5): it computes the LP optimum of
//
//	min cᵀx  s.t.  x an s→t flow of value k, 0 ≤ x ≤ 1, dᵀx ≤ D
//
// via its Lagrangian dual max_λ [ MCF(c+λd) − λD ], keeping λ = p/q exact,
// and returns the two integral minimizers at λ* that straddle the bound.
// Either flow (chosen by potential) satisfies delay/D + cost/C_LP ≤ 2.
func Phase1(ins graph.Instance) (Phase1Result, error) {
	return phase1(ins, nil, nil, nil)
}

// phase1 is Phase1 with a flow-layer metric sink threaded through its
// min-cost-flow calls (nil records nothing), an optional canceller, and an
// optional flight recorder receiving one lambda-iter + duality-gap event
// pair per multiplier update (nil records nothing).
// Cancellation before BOTH endpoint flows exist yields ErrNoProgress (there
// is no feasible k-flow to degrade to); once they do, cancellation merely
// ends the Lagrangian refinement early with Degraded set — the endpoints
// and the best dual value seen remain valid.
func phase1(ins graph.Instance, fm *obs.FlowMetrics, c *cancel.Canceller, r *rec.Recorder) (Phase1Result, error) {
	if err := ins.Validate(); err != nil {
		return Phase1Result{}, err
	}
	g, s, t, k, bound := ins.G, ins.S, ins.T, ins.K, ins.Bound

	// All min-cost-flow calls in the Lagrangian search run on one CSR view
	// through one reusable solver: packing costs O(n + m) once, and the ~10
	// flow computations per phase 1 then allocate nothing but their result
	// sets. The solver's augmentation order is bit-identical to the Digraph
	// path, so this port changes no output anywhere downstream. The
	// cancellation phase builds its residual on the same view.
	view := graph.NewCSR(g)
	kf := flow.NewKFlowSolver(view)
	kf.SetRecorder(r)
	fc, err := kf.MinCostKFlow(s, t, k, shortest.LinCost, fm, c)
	if err != nil {
		if errors.Is(err, cancel.ErrCancelled) {
			return Phase1Result{}, fmt.Errorf("%w: deadline hit during the min-cost endpoint flow", ErrNoProgress)
		}
		return Phase1Result{}, fmt.Errorf("%w: %v", ErrNoKPaths, err)
	}
	if fc.Delay(g) <= bound {
		clp := new(big.Rat).SetInt64(fc.Cost(g))
		return Phase1Result{Lo: fc, Hi: fc, Exact: true,
			CLP: clp, CLPCeil: fc.Cost(g),
			Stats: Phase1Stats{CLPNum: fc.Cost(g), CLPDen: 1}}, nil
	}
	fd, err := kf.MinCostKFlow(s, t, k, shortest.LinDelay, fm, c)
	if err != nil {
		if errors.Is(err, cancel.ErrCancelled) {
			return Phase1Result{}, fmt.Errorf("%w: deadline hit during the min-delay endpoint flow", ErrNoProgress)
		}
		return Phase1Result{}, fmt.Errorf("%w: %v", ErrNoKPaths, err)
	}
	if fd.Delay(g) > bound {
		return Phase1Result{}, fmt.Errorf("%w: min delay %d > bound %d",
			ErrDelayInfeasible, fd.Delay(g), bound)
	}

	hi, lo := fc, fd // hi: delay > D with min cost; lo: delay ≤ D
	var st Phase1Stats
	degraded := false
	best := new(big.Rat).SetInt64(fc.Cost(g)) // L(0) = unconstrained min cost
	for iter := 0; iter < 256; iter++ {
		if c.Check() {
			degraded = true
			break
		}
		st.LambdaIterations++
		// λ = (c(lo) − c(hi)) / (d(hi) − d(lo)) — the multiplier where the
		// two endpoints' Lagrangians tie.
		p := lo.Cost(g) - hi.Cost(g)
		q := hi.Delay(g) - lo.Delay(g)
		if q <= 0 {
			return Phase1Result{}, fmt.Errorf("krsp: internal: lagrangian invariant broken (q=%d)", q)
		}
		if p < 0 {
			p = 0 // cost(lo) < cost(hi) can only happen via ties; λ=0 ends it
		}
		w := shortest.Combine(q, p)
		f, err := kf.MinCostKFlow(s, t, k, shortest.LinCombine(q, p), fm, c)
		if err != nil {
			if errors.Is(err, cancel.ErrCancelled) {
				degraded = true
				break
			}
			return Phase1Result{}, fmt.Errorf("krsp: internal: %v", err)
		}
		wf := f.Weight(g, w)
		// Dual value L(p/q) = (wf − p·D)/q; track the max.
		lval := new(big.Rat).SetFrac64(wf-p*bound, q)
		if lval.Cmp(best) > 0 {
			best = lval
		}
		r.Record(rec.KindLambdaIter, int64(st.LambdaIterations), p, q, wf)
		if r != nil {
			// Convergence snapshot: gap between the feasible endpoint's cost
			// and the best dual bound, floored to the recorder's int64 args.
			// Computed only when recording — the floor allocates big.Ints.
			lc := lo.Cost(g)
			dualFloor := ratFloorInt64(best)
			r.Record(rec.KindDualityGap, int64(st.LambdaIterations), lc, dualFloor, lc-dualFloor)
		}
		if wf == hi.Weight(g, w) || wf == lo.Weight(g, w) {
			break // λ* reached: f ties an endpoint
		}
		if f.Delay(g) <= bound {
			lo = f
		} else {
			hi = f
		}
	}
	res := Phase1Result{Lo: lo, Hi: hi, CLP: best, Degraded: degraded, view: view}
	num, den := best.Num(), best.Denom()
	st.CLPNum, st.CLPDen = num.Int64(), den.Int64()
	// ⌈C_LP⌉ is still a valid lower bound on the integral optimum.
	ceil := new(big.Int).Add(num, new(big.Int).Sub(den, big.NewInt(1)))
	ceil.Div(ceil, den)
	res.CLPCeil = ceil.Int64()
	if res.CLPCeil < 1 {
		res.CLPCeil = 1
	}
	res.Stats = st
	return res, nil
}

// ratFloorInt64 is ⌊x⌋ for a nonnegative rational (big.Int.Div floors for
// the always-positive Rat denominator) — the dual bound as recorder args.
func ratFloorInt64(x *big.Rat) int64 {
	return new(big.Int).Div(x.Num(), x.Denom()).Int64()
}
