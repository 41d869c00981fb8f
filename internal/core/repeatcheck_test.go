package core

import (
	"testing"

	"repro/internal/graph"
)

// walkStates drives a repeatCheck through the state sequence of a loop
// that takes mu distinct steps and then cycles with period lam: state i
// holds the single edge i (i < mu) or mu + (i−mu) mod lam, under C_ref
// cref. It returns the step at which the check fired and the period.
func walkStates(t *testing.T, mu, lam, steps int, cref func(i int) int64) (int, int) {
	t.Helper()
	state := func(i int) graph.EdgeID {
		if i < mu {
			return graph.EdgeID(i)
		}
		return graph.EdgeID(mu + (i-mu)%lam)
	}
	rc := newRepeatCheck(mu+lam, graph.NewEdgeSet(state(0)))
	for i := 0; i < steps; i++ {
		if i > 0 {
			rc.toggle(state(i - 1))
			rc.toggle(state(i))
		}
		if period, again := rc.observe(cref(i)); again {
			return i, period
		}
	}
	return -1, 0
}

func TestRepeatCheckFindsPeriod(t *testing.T) {
	fixed := func(int) int64 { return 7 }
	for _, tc := range []struct{ mu, lam int }{{0, 1}, {0, 2}, {1, 2}, {3, 5}, {10, 1}, {17, 4}, {2, 33}} {
		at, period := walkStates(t, tc.mu, tc.lam, 1000, fixed)
		if at < 0 || period != tc.lam {
			t.Fatalf("μ=%d λ=%d: fired at %d with period %d", tc.mu, tc.lam, at, period)
		}
		bound := 2*max(tc.mu+1, tc.lam) + tc.lam
		if at > bound {
			t.Fatalf("μ=%d λ=%d: fired at step %d, after Brent's bound %d", tc.mu, tc.lam, at, bound)
		}
	}
}

// TestRepeatCheckNeedsSameCRef: a solution that recurs under a grown C_ref
// is a new state (C_ref escalation is progress), so nothing fires.
func TestRepeatCheckNeedsSameCRef(t *testing.T) {
	if at, _ := walkStates(t, 0, 2, 200, func(i int) int64 { return int64(i) }); at >= 0 {
		t.Fatalf("fired at step %d although C_ref never repeats", at)
	}
}

// TestRepeatCheckConfirmsHashMatch forges a hash collision: equal hash and
// C_ref but different edge sets must not count as a repeat.
func TestRepeatCheckConfirmsHashMatch(t *testing.T) {
	rc := newRepeatCheck(128, graph.NewEdgeSet(3))
	if _, again := rc.observe(1); again {
		t.Fatal("first state reported as a repeat")
	}
	rc.toggle(3)
	rc.toggle(100)
	rc.hash = rc.savedHash // forge the collision
	if _, again := rc.observe(1); again {
		t.Fatal("hash collision between different edge sets reported as a repeat")
	}
}

// TestRepeatCheckAllocatesNothing: observing states and applying flips
// allocate nothing, checkpoints included.
func TestRepeatCheckAllocatesNothing(t *testing.T) {
	rc := newRepeatCheck(5000, graph.NewEdgeSet(1, 2, 3))
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		rc.toggle(graph.EdgeID(i % 5000))
		rc.observe(int64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per observed state, want 0", allocs)
	}
}
