package flow_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/shortest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/kflow.golden from the current solver")

const kflowGolden = "testdata/kflow.golden"

type goldenGraph struct {
	name string
	g    *graph.Digraph
	s, t graph.NodeID
}

// kflowCorpus is 60 seeded random multigraphs (n = 20..79, a planted fan of
// four s→t paths plus 4n random edges) and one N≈2k LayeredGrid, the
// size the large benchmarks solve.
func kflowCorpus() []goldenGraph {
	var out []goldenGraph
	for seed := int64(0); seed < 60; seed++ {
		n := 20 + int(seed)
		g, s, t := randomFlowGraph(seed, n, 4*n, 4)
		out = append(out, goldenGraph{fmt.Sprintf("rand-s%d-n%d", seed, n), g, s, t})
	}
	ins := gen.LayeredGrid(42, 20, 100, gen.DefaultWeights())
	return append(out, goldenGraph{"lgrid-42-20x100", ins.G, ins.S, ins.T})
}

// formatFlow renders everything a min-cost-flow call returns: the error, or
// the flow's edge IDs in ascending order.
func formatFlow(f flow.UnitFlow, err error) string {
	if err != nil {
		return "err=" + err.Error()
	}
	return fmt.Sprint("edges=", graph.SortedEdgeIDs(f.Edges.IDs()))
}

// TestKFlowGolden pins the exact output of min-cost k-flow: the flows (not
// just their weights), the errors, and the call, augmentation, relaxation
// and infeasibility counts — the counts are the strongest observable proof
// that the relaxation order is unchanged. It covers KFlowSolver's exact and
// target-stopped searches under cost, delay and a Lagrangian combination,
// and the public Digraph entry point under the matching Weight closures, for
// k = 0..6, so both feasible and infeasible k occur. Refactors of the flow
// kernels must leave every line unchanged; regenerate with -update only for
// a deliberate change of augmentation behaviour.
func TestKFlowGolden(t *testing.T) {
	weights := []struct {
		name string
		w    shortest.Weight
		lw   shortest.LinWeight
	}{
		{"cost", shortest.CostWeight, shortest.LinCost},
		{"delay", shortest.DelayWeight, shortest.LinDelay},
		{"comb3,2", shortest.Combine(3, 2), shortest.LinCombine(3, 2)},
	}
	var b strings.Builder
	for _, gg := range kflowCorpus() {
		kf := flow.NewKFlowSolver(graph.NewCSR(gg.g))
		solvers := []struct {
			name string
			run  func(k int, lw shortest.LinWeight, m *obs.FlowMetrics) (flow.UnitFlow, error)
		}{
			{"exact", func(k int, lw shortest.LinWeight, m *obs.FlowMetrics) (flow.UnitFlow, error) {
				return kf.MinCostKFlow(gg.s, gg.t, k, lw, m, nil)
			}},
			{"target", func(k int, lw shortest.LinWeight, m *obs.FlowMetrics) (flow.UnitFlow, error) {
				return kf.MinCostKFlowTarget(gg.s, gg.t, k, lw, m, nil)
			}},
		}
		for k := 0; k <= 6; k++ {
			for _, sv := range solvers {
				for _, w := range weights {
					m := obs.New(&obs.ManualClock{}).FlowMetrics()
					f, err := sv.run(k, w.lw, m)
					fmt.Fprintf(&b, "%s k=%d %s/%s calls=%d aug=%d relax=%d infeasible=%d %s\n",
						gg.name, k, sv.name, w.name, m.Calls.Value(), m.Augmentations.Value(),
						m.Relaxations.Value(), m.Infeasible.Value(), formatFlow(f, err))
				}
			}
			for _, w := range weights {
				f, err := flow.MinCostKFlow(gg.g, gg.s, gg.t, k, w.w)
				fmt.Fprintf(&b, "%s k=%d public/%s %s\n", gg.name, k, w.name, formatFlow(f, err))
			}
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(kflowGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(kflowGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", kflowGolden, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, want %d", kflowGolden, len(gl), len(wl))
	}
}
