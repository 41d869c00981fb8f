package repro_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// --- large-instance tier (N = 5k .. 50k) --------------------------------
//
// These rows exist to measure the CSR core and the scaled phase-1 kernel at
// the scale they were built for; they are skipped under -short so the
// regular test sweep stays fast. `make bench-large` runs the full tier,
// `make check` runs the N=5k smoke.

// largeInstance builds a layered-grid instance with ≈ n vertices and Θ(n)
// edges, and sets a delay bound in the Lagrangian-hard band: above the
// minimum k-flow delay (feasible) but below the min-cost flow's delay (so
// phase 1 actually runs its λ search). gen.WithBound is deliberately NOT
// used here — its max-flow feasibility certificate is Θ(width) augmentations
// on this family, which would dwarf the setup of every benchmark below.
func largeInstance(b *testing.B, n, k int) graph.Instance {
	b.Helper()
	width := 100
	for width*width < 2*n { // layers ≈ width/2 keeps lanes plentiful
		width += 50
	}
	layers := (n + width - 1) / width
	ins := gen.LayeredGrid(42, layers, width, gen.DefaultWeights())
	ins.K = k
	g := ins.G
	fd, err := flow.MinCostKFlow(g, ins.S, ins.T, k, shortest.DelayWeight)
	if err != nil {
		b.Fatalf("min-delay flow: %v", err)
	}
	minD := fd.Delay(g)
	ins.Bound = minD + minD/10 + 1
	return ins
}

func benchPhase1Classic(b *testing.B, n, k int) {
	if testing.Short() {
		b.Skip("large tier: skipped under -short")
	}
	ins := largeInstance(b, n, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Phase1(ins); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPhase1Scaled(b *testing.B, n, k int) {
	if testing.Short() {
		b.Skip("large tier: skipped under -short")
	}
	ins := largeInstance(b, n, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Phase1Scaled(ins, core.DefaultPhase1Eps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhase1ClassicN5k(b *testing.B)  { benchPhase1Classic(b, 5_000, 3) }
func BenchmarkPhase1ScaledN5k(b *testing.B)   { benchPhase1Scaled(b, 5_000, 3) }
func BenchmarkPhase1ClassicN20k(b *testing.B) { benchPhase1Classic(b, 20_000, 3) }
func BenchmarkPhase1ScaledN20k(b *testing.B)  { benchPhase1Scaled(b, 20_000, 3) }
func BenchmarkPhase1ClassicN50k(b *testing.B) { benchPhase1Classic(b, 50_000, 3) }
func BenchmarkPhase1ScaledN50k(b *testing.B)  { benchPhase1Scaled(b, 50_000, 3) }

// benchSolveLarge runs the full pipeline (scaled phase 1 + the
// cancellation loop) on largeInstance(n, 3): the end-to-end rows behind the
// "N=60 → N=5k+" claim, not just the phase-1 kernel. A nonzero deadline
// bounds each solve as SolveCtx would in krspd; degraded/op reports the
// share of solves the deadline cut short.
func benchSolveLarge(b *testing.B, n int, deadline time.Duration) {
	if testing.Short() {
		b.Skip("large tier: skipped under -short")
	}
	ins := largeInstance(b, n, 3)
	degraded := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if deadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, deadline)
		}
		res, err := core.SolveCtx(ctx, ins, core.Options{Phase1Kernel: "scaled"})
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Degraded {
			degraded++
		}
	}
	b.ReportMetric(float64(degraded)/float64(b.N), "degraded/op")
}

// BenchmarkSolveLargeN2k is the ROADMAP item-1 reproducer (seed 42, N≈2k,
// the instance grid-large leads with): its cancellation loop alternates
// between two states. The repeat cutoff ends it at the first repeated state
// with the phase-1 answer the deadline used to return, so degraded/op reads
// 0; it still runs under grid-large's 4 s deadline, which no longer fires.
func BenchmarkSolveLargeN2k(b *testing.B)  { benchSolveLarge(b, 2_000, 4*time.Second) }
func BenchmarkSolveLargeN5k(b *testing.B)  { benchSolveLarge(b, 5_000, 0) }
func BenchmarkSolveLargeN20k(b *testing.B) { benchSolveLarge(b, 20_000, 0) }
