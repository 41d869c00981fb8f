package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/shortest"
)

// gridSuiteInstance is one N≈2k LayeredGrid instance of the large-tier
// shape (20 layers × 100, k = 3, D = minD + minD/10 + 1).
func gridSuiteInstance(t *testing.T, seed int64) graph.Instance {
	t.Helper()
	ins := gen.LayeredGrid(seed, 20, 100, gen.DefaultWeights())
	ins.K = 3
	fd, err := flow.MinCostKFlow(ins.G, ins.S, ins.T, ins.K, shortest.DelayWeight)
	if err != nil {
		t.Fatalf("seed %d: min-delay flow: %v", seed, err)
	}
	minD := fd.Delay(ins.G)
	ins.Bound = minD + minD/10 + 1
	return ins
}

// TestRepeatCutoffGridSeeds pins the cancellation loops of LayeredGrid
// seeds 42 and 1003 under the scaled phase-1 kernel: both alternate
// between two states. With no deadline the cutoff must stop each within
// 50 loop steps with the repeat reason, and return exactly the Solution a
// MaxIterations: 40 run returns when the cutoff is off (an attached, never
// armed fault registry turns it off and trips nothing).
func TestRepeatCutoffGridSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("N≈2k solves")
	}
	for _, seed := range []int64{42, 1003} {
		ins := gridSuiteInstance(t, seed)
		reg := obs.New(&obs.ManualClock{})
		fr := rec.New(new(obs.ManualClock), 1<<12)
		res, err := core.Solve(ins, core.Options{Phase1Kernel: "scaled", Metrics: reg, Recorder: fr})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := res.Stats
		if st.RepeatPeriod == 0 || !st.FellBackToPhase1 || st.Degraded {
			t.Fatalf("seed %d: repeat-period=%d fell-back=%v degraded=%v, want a repeat cutoff",
				seed, st.RepeatPeriod, st.FellBackToPhase1, st.Degraded)
		}
		t.Logf("seed %d: cut after %d cancellations and %d C_ref escalations, period %d",
			seed, st.Iterations, st.CRefEscalations, st.RepeatPeriod)
		if steps := st.Iterations + st.CRefEscalations; steps >= 50 {
			t.Fatalf("seed %d: cutoff after %d loop steps, want < 50", seed, steps)
		}
		if got := reg.Solver.CancelNoProgress.Value(); got != 1 {
			t.Fatalf("seed %d: krsp_cancel_no_progress_total = %d, want 1", seed, got)
		}
		var reason, period int64 = -1, -1
		for _, ev := range fr.Events() {
			if ev.Kind == rec.KindFallback {
				reason, period = ev.Args[0], ev.Args[1]
			}
		}
		if reason != rec.FallbackRepeat || period != int64(st.RepeatPeriod) {
			t.Fatalf("seed %d: fallback event reason=%d period=%d, want %d/%d",
				seed, reason, period, rec.FallbackRepeat, st.RepeatPeriod)
		}

		capped, err := core.Solve(ins, core.Options{Phase1Kernel: "scaled", MaxIterations: 40, Faults: fault.New(1)})
		if err != nil {
			t.Fatalf("seed %d capped: %v", seed, err)
		}
		if capped.Stats.Iterations != 40 || capped.Stats.RepeatPeriod != 0 {
			t.Fatalf("seed %d capped: %d iterations, repeat-period %d; want the cap to stop it",
				seed, capped.Stats.Iterations, capped.Stats.RepeatPeriod)
		}
		if !reflect.DeepEqual(res.Solution, capped.Solution) || res.Cost != capped.Cost || res.Delay != capped.Delay {
			t.Fatalf("seed %d: cutoff returned cost %d delay %d, the capped run %d/%d",
				seed, res.Cost, res.Delay, capped.Cost, capped.Delay)
		}
	}
}
