package bicameral_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bicameral"
	"repro/internal/gen"
	"repro/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/find.golden from the current engines")

// goldenCorpus is the determinism corpus: five generator families, 30
// seeded rounds.
func goldenCorpus() []graph.Instance {
	mks := []func(seed int64) graph.Instance{
		func(s int64) graph.Instance { return gen.ER(s, 14+int(s%10), 0.25, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Grid(s, 4, 4, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Layered(s, 4, 4, 0.6, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.Geometric(s, 16, 0.4, gen.DefaultWeights()) },
		func(s int64) graph.Instance { return gen.ISP(s, 7, 2, gen.DefaultWeights()) },
	}
	var out []graph.Instance
	for round := 0; round < 30; round++ {
		ins := mks[round%len(mks)](int64(round))
		ins.K = 1 + round%2
		if bounded, ok := gen.WithBound(ins, 1.1+0.07*float64(round%5)); ok {
			out = append(out, bounded)
		}
	}
	return out
}

// formatCandidate renders a candidate with every field Find returns:
// cycle edge IDs in order, aggregate cost and delay, and type.
func formatCandidate(c bicameral.Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "type=%d cost=%d delay=%d cycles=[", c.Type, c.Cost, c.Delay)
	for i, cyc := range c.Cycles {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprint(&b, cyc.Edges)
	}
	b.WriteByte(']')
	return b.String()
}

// TestFindGolden pins the exact output of bicameral.Find — candidate and
// Stats — for the combinatorial engine (doubling and FullSweep budget
// schedules) and the min-ratio engine over a fixed corpus. Each instance is
// searched with the parameters Solve would derive and again with a quarter
// of that cost cap: the tight cap makes the detected cycles fail, so the
// dense instances exhaust the enumerator and reach the layered sweep. The
// tight-cap arms cap the budget, which keeps the layered graphs small.
// Refactors of the search kernels must leave every line unchanged;
// regenerate with -update only for a deliberate change of search behaviour.
func TestFindGolden(t *testing.T) {
	arms := []struct {
		name   string
		capDiv int64
		opt    bicameral.Options
	}{
		{"comb", 1, bicameral.Options{}},
		{"comb-cap4", 4, bicameral.Options{MaxBudget: 64}},
		{"full-cap4", 4, bicameral.Options{FullSweep: true, MaxBudget: 6}},
		{"minratio", 1, bicameral.Options{Engine: bicameral.EngineMinRatio}},
		{"minratio-cap4", 4, bicameral.Options{Engine: bicameral.EngineMinRatio}},
	}
	var b strings.Builder
	layered := map[string]int{}
	for _, ins := range goldenCorpus() {
		rg, params, ok := findInputs(t, ins)
		if !ok {
			continue
		}
		for _, arm := range arms {
			p := params
			p.CostCap = max(1, params.CostCap/arm.capDiv)
			cand, st, found := bicameral.Find(rg, p, arm.opt)
			fmt.Fprintf(&b, "%s k=%d %s found=%v searches=%d candidates=%d budgets=%d last=%d",
				ins.Name, ins.K, arm.name, found, st.Searches, st.Candidates, st.BudgetsTried, st.LastBudget)
			if found {
				fmt.Fprintf(&b, " | %s", formatCandidate(cand))
			}
			if st.Fallback != nil {
				fmt.Fprintf(&b, " | fallback %s", formatCandidate(*st.Fallback))
			}
			b.WriteByte('\n')
			if st.BudgetsTried > 0 {
				layered[arm.name]++
			}
		}
	}
	for _, arm := range []string{"comb-cap4", "full-cap4"} {
		if layered[arm] == 0 {
			t.Fatalf("arm %s: no instance reached the layered sweep; corpus too tame", arm)
		}
	}
	got := b.String()
	const path = "testdata/find.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, golden has %d", len(gl), len(wl))
	}
}
