package shortest_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bicameral"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/residual"
	"repro/internal/shortest"
)

// TestSPFAGridResiduals runs both SPFA entry points at the size the
// grid-large benchmark solves: the residual graphs of N≈2k LayeredGrid
// instances after phase 1, under the lexicographic detection weights the
// combinatorial engine builds, with and without random exclusion masks.
// Verdicts must match the Bellman–Ford reference; a returned cycle must be
// vertex-simple, closed and negative, and "no cycle" must come with
// feasible potentials.
func TestSPFAGridResiduals(t *testing.T) {
	ws := shortest.NewWorkspace(1)
	verdicts := map[bool]int{}
	for seed := int64(1001); seed <= 1004; seed++ {
		rg, params := gridResidual(t, seed)
		g, c := rg.R, rg.View()
		rng := rand.New(rand.NewSource(seed))
		for pi, p := range params {
			for wi, lw := range bicameral.DetectionWeights(rg, p) {
				label := fmt.Sprintf("seed %d params %d weight %d", seed, pi, wi)
				for mask := 0; mask < 3; mask++ {
					var alive []bool
					if mask > 0 {
						alive = make([]bool, g.NumEdges())
						for i := range alive {
							alive[i] = rng.Intn(4) != 0
						}
					}
					w := func(e graph.Edge) int64 {
						if alive != nil && !alive[e.ID] {
							return shortest.MaskedW
						}
						return lw.Of(e.Cost, e.Delay)
					}
					shortest.CheckNegCycleVerdict(t, fmt.Sprintf("%s mask %d", label, mask), ws, g, c, w, lw, alive)
					_, _, ok := shortest.SPFAAllCSRInto(ws, c, lw, alive) // just checked against Bellman–Ford
					verdicts[ok]++
				}

				_, _, wantOK := shortest.SPFAAllCSRInto(ws, c, lw, nil)
				cyc, neg, done := shortest.SPFAAllBoundedCSRInto(ws, c, lw, 1<<40)
				if !done || neg == wantOK {
					t.Fatalf("%s: bounded done=%v negative=%v, Bellman–Ford ok=%v", label, done, neg, wantOK)
				}
				if !neg {
					continue
				}
				if err := cyc.Validate(g, true); err != nil {
					t.Fatalf("%s: bounded cycle: %v", label, err)
				}
				var sum int64
				for _, id := range cyc.Edges {
					e := g.Edge(id)
					sum += lw.Of(e.Cost, e.Delay)
				}
				if sum >= 0 {
					t.Fatalf("%s: bounded cycle weight %d is not negative", label, sum)
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v: the sweep must see both cycles and cycle-free views", verdicts)
	}
}

// gridResidual builds the grid-large instance for seed (20 layers × 100,
// k=3, D = minD + minD/10 + 1), runs phase 1, and returns the residual
// graph of the delay-infeasible flow the cancellation loop starts from,
// with the Params of its first Find and of a Find after C_ref has
// escalated to its ceiling, the feasible flow's cost.
func gridResidual(t *testing.T, seed int64) (*residual.Graph, []bicameral.Params) {
	t.Helper()
	ins := gen.LayeredGrid(seed, 20, 100, gen.DefaultWeights())
	ins.K = 3
	fd, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, ins.K, shortest.DelayWeight)
	if err != nil {
		t.Fatalf("seed %d: min-delay flow: %v", seed, err)
	}
	minD := fd.Delay(ins.G)
	ins.Bound = minD + minD/10 + 1
	p1, err := core.Phase1Scaled(ins, core.DefaultPhase1Eps)
	if err != nil {
		t.Fatalf("seed %d: phase 1: %v", seed, err)
	}
	cost, delay := p1.Hi.Cost(ins.G), p1.Hi.Delay(ins.G)
	cRef := p1.CLPCeil
	if cRef <= cost {
		cRef = cost + 1
	}
	params := []bicameral.Params{{DeltaD: ins.Bound - delay, DeltaC: cRef - cost, CostCap: cRef}}
	if loCost := p1.Lo.Cost(ins.G); loCost > cRef {
		params = append(params, bicameral.Params{DeltaD: ins.Bound - delay, DeltaC: loCost - cost, CostCap: loCost})
	}
	return residual.Build(ins.G, p1.Hi.Edges), params
}
