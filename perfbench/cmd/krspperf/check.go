package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// checkResult verifies one in-process solve: exactly k edge-disjoint s→t
// paths, delay ≤ D, the reported cost and delay equal to the sums over the
// paths, and the certified lower bound ≤ cost. Degraded answers must pass
// too: the solver promises delay ≤ D and the certificate on every return.
func checkResult(ins graph.Instance, res core.Result) error {
	if err := res.Solution.Validate(ins); err != nil {
		return fmt.Errorf("%s: %w", ins.Name, err)
	}
	if c := res.Solution.Cost(ins.G); c != res.Cost {
		return fmt.Errorf("%s: reported cost %d, paths cost %d", ins.Name, res.Cost, c)
	}
	if d := res.Solution.Delay(ins.G); d != res.Delay {
		return fmt.Errorf("%s: reported delay %d, paths delay %d", ins.Name, res.Delay, d)
	}
	if res.Delay > ins.Bound {
		return fmt.Errorf("%s: delay %d exceeds bound %d", ins.Name, res.Delay, ins.Bound)
	}
	if res.LowerBound > res.Cost {
		return fmt.Errorf("%s: lower bound %d exceeds cost %d", ins.Name, res.LowerBound, res.Cost)
	}
	return nil
}

// solveResp is the part of krspd's /solve answer the benchmark reads.
type solveResp struct {
	Cost       int64     `json:"cost"`
	Delay      int64     `json:"delay"`
	LowerBound int64     `json:"lowerBound"`
	Paths      [][]int32 `json:"paths"`
	Degraded   bool      `json:"degraded"`
	Cache      string    `json:"cache"`
}

// checkResponse verifies one krspd answer. Its paths arrive as vertex
// sequences, so they are checked as k s→t walks whose hops use no more
// parallel edges than the graph has; the totals must then equal those of
// ref, an in-process core.Solve of the same instance with the same options
// (which checkResult has already verified edge by edge). A nil ref (the
// answer was cut by a deadline, so no in-process solve can reproduce it)
// skips that comparison.
func checkResponse(ins graph.Instance, r solveResp, ref *core.Result) error {
	if len(r.Paths) != ins.K {
		return fmt.Errorf("%s: %d paths, want %d", ins.Name, len(r.Paths), ins.K)
	}
	used := map[[2]int32]int{}
	for i, p := range r.Paths {
		if len(p) < 2 || graph.NodeID(p[0]) != ins.S || graph.NodeID(p[len(p)-1]) != ins.T {
			return fmt.Errorf("%s: path %d is not an s→t walk", ins.Name, i)
		}
		for j := 0; j+1 < len(p); j++ {
			hop := [2]int32{p[j], p[j+1]}
			used[hop]++
			if used[hop] > len(ins.G.FindEdges(graph.NodeID(hop[0]), graph.NodeID(hop[1]))) {
				return fmt.Errorf("%s: path %d hop %d→%d has no free edge", ins.Name, i, hop[0], hop[1])
			}
		}
	}
	if r.Delay > ins.Bound {
		return fmt.Errorf("%s: delay %d exceeds bound %d", ins.Name, r.Delay, ins.Bound)
	}
	if r.LowerBound > r.Cost {
		return fmt.Errorf("%s: lower bound %d exceeds cost %d", ins.Name, r.LowerBound, r.Cost)
	}
	if ref != nil && (r.Cost != ref.Cost || r.Delay != ref.Delay || r.LowerBound != ref.LowerBound) {
		return fmt.Errorf("%s: krspd (cost %d, delay %d, lb %d) differs from in-process (%d, %d, %d)",
			ins.Name, r.Cost, r.Delay, r.LowerBound, ref.Cost, ref.Delay, ref.LowerBound)
	}
	return nil
}
