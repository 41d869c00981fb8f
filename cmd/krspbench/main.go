// Command krspbench runs the hot-path benchmark suite via testing.Benchmark
// and writes a machine-readable JSON report (BENCH_1.json by default): one
// record per benchmark with ns/op, allocs/op and B/op. CI and the README
// performance workflow diff these reports across commits.
//
// Usage:
//
//	krspbench                       # all benchmarks → BENCH_1.json
//	krspbench -out report.json      # custom output path
//	krspbench -run Solve,Residual   # substring-filtered subset
//	krspbench -guard BENCH_1.json   # fail if allocs/op regress above the
//	                                # baseline or B/op by more than 10%
//	                                # (no report written unless -out is
//	                                # given explicitly)
//	krspbench -baseline BENCH_1.json# per-benchmark delta table (ns/op, B/op,
//	                                # allocs/op vs the baseline), failing on
//	                                # the same regressions as -guard
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bicameral"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/residual"
	"repro/internal/shortest"
	"repro/internal/solvecache"
)

// record is one benchmark result in the JSON report.
type record struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// report is the BENCH_1.json schema.
type report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benchmarks []record `json:"benchmarks"`
}

type bench struct {
	name string
	fn   func(b *testing.B)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "krspbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("krspbench", flag.ContinueOnError)
	outPath := fs.String("out", "BENCH_1.json", "output JSON path (- for stdout)")
	filter := fs.String("run", "", "comma-separated substrings; empty = all")
	guardPath := fs.String("guard", "", "baseline JSON: fail on allocs/op or B/op regression instead of writing a report")
	basePath := fs.String("baseline", "", "baseline JSON: print a per-benchmark delta table and fail on allocs/op or B/op regression")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	outSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})
	var wanted []string
	if *filter != "" {
		wanted = strings.Split(*filter, ",")
	}
	rep := report{
		Schema:     "krspbench/1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, bm := range suite() {
		if !matches(bm.name, wanted) {
			continue
		}
		// testing.Benchmark applies the standard ~1s auto-scaling.
		res := testing.Benchmark(bm.fn)
		if res.N == 0 {
			fmt.Fprintf(out, "%-28s skipped\n", bm.name)
			continue
		}
		rec := record{
			Name:        bm.name,
			Iters:       res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
		fmt.Fprintf(out, "%-28s %12.0f ns/op %10d allocs/op %12d B/op\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
	}
	if *basePath != "" {
		if err := diffBaseline(out, *basePath, rep.Benchmarks); err != nil {
			return err
		}
		if !outSet {
			return nil // baseline mode: don't clobber the baseline
		}
	}
	if *guardPath != "" {
		if err := guard(out, *guardPath, rep.Benchmarks); err != nil {
			return err
		}
		if !outSet {
			return nil // guard mode: don't clobber the baseline
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath == "-" {
		_, err = out.Write(data)
		return err
	}
	return os.WriteFile(*outPath, data, 0o644)
}

// bytesSlackPct is the B/op headroom over the baseline that the guards
// allow. B/op moves a little with pool reuse and GC timing, unlike
// allocs/op, but a buffer that grows with work instead of with n (an
// append-only queue costing GB/op, say) overshoots it by orders of
// magnitude, and allocs/op alone does not see that.
const bytesSlackPct = 10

// regressions lists the guarded quantities on which r regresses against
// its baseline record b: any allocs/op increase, and B/op more than
// bytesSlackPct above b's.
func regressions(r, b record) []string {
	var out []string
	if r.AllocsPerOp > b.AllocsPerOp {
		out = append(out, fmt.Sprintf("%s: %d allocs/op > baseline %d", r.Name, r.AllocsPerOp, b.AllocsPerOp))
	}
	if limit := b.BytesPerOp + b.BytesPerOp*bytesSlackPct/100; r.BytesPerOp > limit {
		out = append(out, fmt.Sprintf("%s: %d B/op > baseline %d + %d%%", r.Name, r.BytesPerOp, b.BytesPerOp, bytesSlackPct))
	}
	return out
}

// readBaseline loads a report's records by name.
func readBaseline(path string) (map[string]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseline := make(map[string]record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	return baseline, nil
}

// guard compares every benchmark present in both the current run and the
// baseline report, and fails on any regression. allocs/op is guarded
// exactly (it is deterministic, unlike ns/op): the zero-alloc observability
// contract says core.Solve with Options.Metrics unset must not allocate
// more than the pre-instrumentation baseline. B/op is guarded within
// bytesSlackPct.
func guard(out io.Writer, path string, current []record) error {
	baseline, err := readBaseline(path)
	if err != nil {
		return err
	}
	compared := 0
	var regressed []string
	for _, r := range current {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(out, "guard: %-22s no baseline, skipped\n", r.Name)
			continue
		}
		compared++
		if bad := regressions(r, b); len(bad) > 0 {
			regressed = append(regressed, bad...)
		} else {
			fmt.Fprintf(out, "guard: %-22s %d allocs/op ≤ baseline %d, %d B/op ≤ baseline %d + %d%%\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, r.BytesPerOp, b.BytesPerOp, bytesSlackPct)
		}
	}
	if compared == 0 {
		return fmt.Errorf("guard: no benchmark in common with %s (check -run filter)", path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("allocation regression vs %s:\n  %s", path, strings.Join(regressed, "\n  "))
	}
	return nil
}

// diffBaseline prints a per-benchmark delta table against a previous report
// and, like guard, fails on any allocs/op or B/op regression. ns/op deltas
// are informational (they are machine- and load-dependent).
func diffBaseline(out io.Writer, path string, current []record) error {
	baseline, err := readBaseline(path)
	if err != nil {
		return err
	}
	pct := func(cur, old float64) string {
		if old == 0 {
			return "   n/a"
		}
		return fmt.Sprintf("%+6.1f%%", (cur-old)/old*100)
	}
	fmt.Fprintf(out, "\ndelta vs %s\n", path)
	fmt.Fprintf(out, "%-24s %14s %9s %12s %9s %12s %6s\n",
		"benchmark", "ns/op", "Δ", "B/op", "Δ", "allocs/op", "Δ")
	compared := 0
	var regressed []string
	for _, r := range current {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(out, "%-24s %14.0f %9s %12d %9s %12d %6s  (new)\n",
				r.Name, r.NsPerOp, "", r.BytesPerOp, "", r.AllocsPerOp, "")
			continue
		}
		compared++
		fmt.Fprintf(out, "%-24s %14.0f %9s %12d %9s %12d %+6d\n",
			r.Name, r.NsPerOp, pct(r.NsPerOp, b.NsPerOp),
			r.BytesPerOp, pct(float64(r.BytesPerOp), float64(b.BytesPerOp)),
			r.AllocsPerOp, r.AllocsPerOp-b.AllocsPerOp)
		regressed = append(regressed, regressions(r, b)...)
	}
	if compared == 0 {
		return fmt.Errorf("baseline: no benchmark in common with %s (check -run filter)", path)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("allocation regression vs %s:\n  %s", path, strings.Join(regressed, "\n  "))
	}
	return nil
}

func matches(name string, wanted []string) bool {
	if len(wanted) == 0 {
		return true
	}
	for _, w := range wanted {
		if strings.Contains(strings.ToLower(name), strings.ToLower(strings.TrimSpace(w))) {
			return true
		}
	}
	return false
}

func benchInstance(n, k int, slack float64) graph.Instance {
	ins := gen.ER(42, n, 0.2, gen.DefaultWeights())
	ins.K = k
	bounded, ok := gen.WithBound(ins, slack)
	if !ok {
		panic("krspbench: benchmark instance infeasible")
	}
	return bounded
}

// largeInstance mirrors the repo-level bench_large_test.go helper: a
// layered-grid instance with ≈ n vertices, Θ(n) edges, and a delay bound in
// the Lagrangian-hard band (min-delay feasible, min-cost infeasible), built
// without gen.WithBound's Θ(width)-augmentation feasibility certificate.
func largeInstance(n, k int) graph.Instance {
	width := 100
	for width*width < 2*n {
		width += 50
	}
	layers := (n + width - 1) / width
	ins := gen.LayeredGrid(42, layers, width, gen.DefaultWeights())
	ins.K = k
	fd, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, k, shortest.DelayWeight)
	if err != nil {
		panic("krspbench: large instance infeasible: " + err.Error())
	}
	minD := fd.Delay(ins.G)
	ins.Bound = minD + minD/10 + 1
	return ins
}

func phase1Row(n, k int, scaled bool) func(b *testing.B) {
	return func(b *testing.B) {
		ins := largeInstance(n, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if scaled {
				_, err = core.Phase1Scaled(ins, core.DefaultPhase1Eps)
			} else {
				_, err = core.Phase1(ins)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// solveLargeRow is the end-to-end twin of phase1Row: the full pipeline
// (scaled phase 1 and the cancellation loop) on largeInstance(n, k).
func solveLargeRow(n, k int) func(b *testing.B) {
	return func(b *testing.B) {
		ins := largeInstance(n, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(ins, core.Options{Phase1Kernel: "scaled"}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// suite mirrors the hot-path subset of the repo-level bench_test.go — the
// benchmarks whose regressions the performance workflow tracks.
func suite() []bench {
	return []bench{
		{"SolveN20K2", func(b *testing.B) {
			ins := benchInstance(20, 2, 1.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveN60K3", func(b *testing.B) {
			ins := benchInstance(60, 3, 1.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveCtxN60K3", func(b *testing.B) {
			// Cancellable-context twin of SolveN60K3: a live Canceller is
			// threaded through every kernel, so this proves the deadline
			// machinery (pool-backed Canceller, strided polling) costs zero
			// additional allocations on the hot path.
			ins := benchInstance(60, 3, 1.3)
			ctx, stop := context.WithCancel(context.Background())
			defer stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveCtx(ctx, ins, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveN60K3CacheMiss", func(b *testing.B) {
			// Cache-layer twin: the full krspd miss path (fingerprint,
			// lookup, solve, insert, evict) per iteration. The guarded
			// baseline pins allocs/op equal to SolveN60K3: fingerprinting
			// is allocation-free and the cache freelist recycles entries.
			ins := benchInstance(60, 3, 1.3)
			cache := solvecache.NewCache[core.Result](8, int64(time.Hour))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fp := solvecache.Fingerprint(ins, "solve", 0)
				if _, st := cache.Get(fp, int64(i)); st != solvecache.Miss {
					b.Fatal("unexpected cache hit")
				}
				res, err := core.Solve(ins, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cache.Put(fp, res, int64(i))
				cache.Remove(fp)
			}
		}},
		{"SolveN60K3Metrics", func(b *testing.B) {
			// Same workload with a live registry: the price of recording.
			// Not in the guarded baseline; tracked for visibility.
			ins := benchInstance(60, 3, 1.3)
			reg := obs.New(obs.RealClock{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{Metrics: reg}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveN60K3Recorder", func(b *testing.B) {
			// Flight-recorded twin: a live ring recorder is threaded through
			// every kernel. Not in the guarded baseline; tracked so the cost
			// of event recording stays visible next to the Metrics twin.
			ins := benchInstance(60, 3, 1.3)
			r := rec.New(obs.RealClock{}, rec.DefaultCapacity)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{Recorder: r}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"SolveIncremental", func(b *testing.B) {
			ins := benchInstance(40, 3, 1.15)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(ins, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"BicameralFind", func(b *testing.B) {
			rg, p, ok := bicameralInputs()
			if !ok {
				b.Skip("min-cost flow already feasible")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bicameral.Find(rg, p, bicameral.Options{})
			}
		}},
		{"BicameralParallel", func(b *testing.B) {
			rg, p, ok := bicameralInputs()
			if !ok {
				b.Skip("min-cost flow already feasible")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bicameral.Find(rg, p, bicameral.Options{Workers: 4})
			}
		}},
		{"ResidualBuild", func(b *testing.B) {
			ins := gen.ER(7, 100, 0.1, gen.DefaultWeights())
			f1, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, 2, shortest.CostWeight)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				residual.Build(ins.G, f1.Edges)
			}
		}},
		// The SPFA rows time the CSR kernel on a view packed outside the
		// loop; SPFAAll rents a fresh workspace per search, SPFAAllInto
		// reuses one.
		{"SPFAAll", func(b *testing.B) {
			ins := gen.ER(3, 200, 0.08, gen.DefaultWeights())
			c := graph.NewCSR(ins.G)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shortest.SPFAAllCSRInto(shortest.NewWorkspace(c.NumNodes()), c, shortest.LinCost, nil)
			}
		}},
		{"SPFAAllInto", func(b *testing.B) {
			ins := gen.ER(3, 200, 0.08, gen.DefaultWeights())
			c := graph.NewCSR(ins.G)
			ws := shortest.NewWorkspace(c.NumNodes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shortest.SPFAAllCSRInto(ws, c, shortest.LinCost, nil)
			}
		}},
		// Large tier: classic vs scaled phase-1 kernel on the same instance.
		// The scaled/classic ns/op ratio at each size is the headline claim
		// of the CSR + scaled-kernel work (≥2× at N ≥ 5k, allocs/op flat).
		{"Phase1ClassicN5k", phase1Row(5_000, 3, false)},
		{"Phase1ScaledN5k", phase1Row(5_000, 3, true)},
		{"Phase1ClassicN20k", phase1Row(20_000, 3, false)},
		{"Phase1ScaledN20k", phase1Row(20_000, 3, true)},
		{"Phase1ClassicN50k", phase1Row(50_000, 3, false)},
		{"Phase1ScaledN50k", phase1Row(50_000, 3, true)},
		// End to end at N=5k, where phase 2 dominates: its B/op row is what
		// catches a search buffer that grows with work instead of with n.
		{"SolveLargeN5k", solveLargeRow(5_000, 3)},
	}
}

func bicameralInputs() (*residual.Graph, bicameral.Params, bool) {
	ins := benchInstance(30, 2, 1.2)
	f, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, ins.K, shortest.CostWeight)
	if err != nil {
		panic(err)
	}
	rg := residual.Build(ins.G, f.Edges)
	dd := ins.Bound - f.Delay(ins.G)
	if dd >= 0 {
		return nil, bicameral.Params{}, false
	}
	return rg, bicameral.Params{DeltaD: dd, DeltaC: 10, CostCap: 1 << 20}, true
}
