package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/solvecache"
)

// libWorkload is a closed-loop library workload: one caller runs
// core.SolveCtx on its inputs in order, starting the next solve when the
// previous one (and its output check) is done.
type libWorkload struct {
	opts core.Options
	// deadline bounds each solve (0: none). A solve it cuts returns a
	// degraded answer; that answer is checked like any other and counts as
	// an answered op, with its full latency, and in cut.
	deadline time.Duration
	// pass, when positive, makes a timed loop end only after whole passes
	// of that many inputs, so that every run solves each input equally
	// often and its figures do not turn on which inputs the time reached.
	pass int
	// probe indexes the traced run's fixed work: those items are posted to
	// krspd once each, so the serving layers are measured on this
	// workload's own inputs.
	probe []int
}

func now() int64 { return obs.RealClock{}.Now() }

// deadlineCtx bounds one solve by d; 0 means no deadline.
func deadlineCtx(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

// loopStats aggregates the attempts of one runLoop call. Latency and time
// cover the answered solves, deadline-cut ones included; a failed one (an
// error or a failed check) counts only in failed and failedNs. Allocation
// covers the solves that ran to completion: a cut solve allocates in
// proportion to how far the host let it run before the deadline.
type loopStats struct {
	latMs     []float64 // solve-call latency of every answered attempt
	allocB    float64   // heap bytes allocated inside completed solve calls
	attempts  int
	failed    int
	cut       int       // answered, but degraded by the deadline
	ratios    []float64 // cost / lower bound of every returned solution
	lagMaxMs  float64   // longest gap between one solve's end and the next's start
	busyNs    int64     // time inside answered solve calls
	cutNs     int64     // of busyNs, the time inside deadline-cut solves
	failedNs  int64     // time inside failed solve calls
	gcCycles  float64
	gcPauseNs float64
	checkErrs []error
}

// allocCounter reads the process's cumulative heap allocation in bytes.
type allocCounter []metrics.Sample

func newAllocCounter() allocCounter {
	return allocCounter{{Name: "/gc/heap/allocs:bytes"}}
}

func (a allocCounter) read() float64 {
	metrics.Read(a)
	return float64(a[0].Value.Uint64())
}

// runLoop runs the closed loop on at(0), at(1), ... until stopAt (a now()
// reading; 0 means no time limit), rounded up to whole passes, or count
// attempts (0: no limit). With a non-nil tracer every solve carries
// Metrics and a flight recorder and leaves spans; otherwise both sinks
// stay nil.
func runLoop(w libWorkload, at func(int) item, stopAt int64, count int, tr *tracer, reg *obs.Registry, layers *solverLayers) loopStats {
	var st loopStats
	var flight *rec.Recorder
	opts := w.opts
	if tr != nil {
		flight = rec.New(obs.RealClock{}, 1<<15)
		opts.Metrics, opts.Recorder = reg, flight
	}
	allocs := newAllocCounter()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	prevEnd := int64(0)
	for i := 0; ; i++ {
		if (count > 0 && i >= count) || (stopAt > 0 && now() >= stopAt && i%max(w.pass, 1) == 0) {
			break
		}
		it := at(i)
		ctx, cancel := deadlineCtx(w.deadline)
		flight.Reset()
		before := readCounts(reg)
		trace := tr.newTrace()
		a0 := allocs.read()
		t0 := now()
		res, err := core.SolveCtx(ctx, it.ins, opts)
		t1 := now()
		a1 := allocs.read()
		cancel()
		if prevEnd > 0 {
			st.lagMaxMs = max(st.lagMaxMs, float64(t0-prevEnd)/1e6)
		}
		st.attempts++
		ok := err == nil
		if ok {
			if cerr := checkResult(it.ins, res); cerr != nil {
				ok = false
				st.checkErrs = append(st.checkErrs, cerr)
			}
			if res.LowerBound > 0 {
				st.ratios = append(st.ratios, float64(res.Cost)/float64(res.LowerBound))
			}
		}
		full := ok && !res.Stats.Degraded
		switch {
		case !ok:
			st.failed++
			st.failedNs += t1 - t0
		case !full:
			st.cut++
			st.cutNs += t1 - t0
		}
		if ok {
			st.latMs = append(st.latMs, float64(t1-t0)/1e6)
			st.busyNs += t1 - t0
		}
		if full {
			st.allocB += a1 - a0
		}
		t2 := now()
		if tr != nil {
			root := tr.add(trace, -1, "op", t0, t2)
			solve := tr.add(trace, root, "core.solve", t0, t1)
			tr.add(trace, root, "check", t1, t2)
			events := flight.Events()
			findMs := tr.addSolve(trace, solve, events)
			layers.add(it.ins, res, full, events, findMs, before, readCounts(reg))
		}
		prevEnd = now()
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	st.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	st.gcPauseNs = float64(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return st
}

// e2e turns an untraced loop into the end-to-end metrics.
func (st loopStats) e2e() map[string]float64 {
	ok := float64(len(st.latMs))
	return map[string]float64{
		"op_ms_p50":       median(st.latMs),
		"ops_per_s":       ratio(ok, float64(st.busyNs)/1e9),
		"cost_ratio":      mean(st.ratios),
		"alloc_mb_per_op": ratio(st.allocB/1e6, ok-float64(st.cut)),
	}
}

// Registry readings the solver-layer metrics are per-solve differences of.
const (
	rcFlowCalls = iota
	rcFlowAugs
	rcFlowRelax
	rcFinds
	rcSearches
	rcCandidates
	rcBudgets
	rcNotFound
	rcSpfaRuns
	rcSpfaRelax
	rcNegCycles
	rcPhase1Ns
	rcCancelNs
	rcDecomposeNs
	rcTotalNs
	numCounts
)

type counts [numCounts]float64

func readCounts(reg *obs.Registry) counts {
	if reg == nil {
		return counts{}
	}
	c := func(x *obs.Counter) float64 { return float64(x.Value()) }
	h := func(p obs.Phase) float64 { return float64(reg.PhaseHistogram(p).Sum()) }
	b := &reg.Bicameral
	return counts{
		c(reg.Flow.Calls), c(reg.Flow.Augmentations), c(reg.Flow.Relaxations),
		c(b.Finds), c(b.Searches), c(b.Candidates), c(b.BudgetEscalations), c(b.NotFound),
		c(reg.Shortest.Runs), c(reg.Shortest.Relaxations), c(reg.Shortest.NegCycles),
		h(obs.PhasePhase1), h(obs.PhaseCancel), h(obs.PhaseDecompose), h(obs.PhaseTotal),
	}
}

// solverLayers accumulates the per-solve layer metrics of a traced loop
// over the solves that ran to completion: their registry deltas, Stats
// and flight-recorder events. The solver is deterministic, so these
// per-solve counts repeat exactly for the same inputs; a solve a deadline
// cut is timing-dependent, and is only counted in cut.
type solverLayers struct {
	solves        int
	cut           int
	sum           counts
	runEdges      float64 // Σ SPFA runs × m, the relax_per_edge base
	fallbacks     int
	cancelIters   float64
	lambdaIters   float64
	rebuilds      float64
	applies       float64
	flipped       float64
	findMs        []float64
	decodeUs      []float64
	fingerprintUs []float64
	payloadB      []float64
}

func (l *solverLayers) add(ins graph.Instance, res core.Result, full bool, events []rec.Event, findMs []float64, before, after counts) {
	if !full {
		l.cut++
		return
	}
	l.solves++
	for i := range l.sum {
		l.sum[i] += after[i] - before[i]
	}
	l.runEdges += (after[rcSpfaRuns] - before[rcSpfaRuns]) * float64(ins.G.NumEdges())
	for _, ev := range events {
		if ev.Kind == rec.KindResidualApply {
			l.applies++
			l.flipped += float64(ev.Args[1])
		}
	}
	l.findMs = append(l.findMs, findMs...)
	s := res.Stats
	l.cancelIters += float64(s.Iterations + s.CRefEscalations)
	l.lambdaIters += float64(s.Phase1.LambdaIterations)
	l.rebuilds += float64(s.ResidualRebuilds)
	if s.FellBackToPhase1 && (s.Iterations > 0 || s.CRefEscalations > 0 || s.BudgetsTried > 0) {
		l.fallbacks++
	}
}

// measureInputs times the graph and solvecache layers on the payloads the
// way krspd runs them: ReadInstance + Validate, then Fingerprint.
func (l *solverLayers) measureInputs(items []item) error {
	for _, it := range items {
		t0 := now()
		ins, err := graph.ReadInstance(bytes.NewReader(it.payload))
		if err == nil {
			err = ins.Validate()
		}
		t1 := now()
		if err != nil {
			return fmt.Errorf("decode %s: %w", it.ins.Name, err)
		}
		solvecache.Fingerprint(ins, "solve", 0)
		t2 := now()
		l.decodeUs = append(l.decodeUs, float64(t1-t0)/1e3)
		l.fingerprintUs = append(l.fingerprintUs, float64(t2-t1)/1e3)
		l.payloadB = append(l.payloadB, float64(len(it.payload)))
	}
	return nil
}

// metrics turns the accumulated solves into the solver-layer per-layer
// metrics: counts per completed solve, and the share the deadline cut.
func (l *solverLayers) metrics() map[string]float64 {
	n := float64(l.solves)
	per := func(i int) float64 { return ratio(l.sum[i], n) }
	return map[string]float64{
		"core.phase1_ms":            per(rcPhase1Ns) / 1e6,
		"core.cancel_ms":            per(rcCancelNs) / 1e6,
		"core.decompose_ms":         per(rcDecomposeNs) / 1e6,
		"core.cancel_frac":          ratio(l.sum[rcCancelNs], l.sum[rcTotalNs]),
		"core.cancel_iters":         ratio(l.cancelIters, n),
		"core.lambda_iters":         ratio(l.lambdaIters, n),
		"core.fallback_frac":        ratio(float64(l.fallbacks), n),
		"core.cut_frac":             ratio(float64(l.cut), n+float64(l.cut)),
		"flow.mincost_calls":        per(rcFlowCalls),
		"flow.augmentations":        per(rcFlowAugs),
		"flow.relax":                per(rcFlowRelax),
		"bicameral.finds":           per(rcFinds),
		"bicameral.searches":        per(rcSearches),
		"bicameral.candidates":      per(rcCandidates),
		"bicameral.budgets":         per(rcBudgets),
		"bicameral.found_frac":      ratio(l.sum[rcFinds]-l.sum[rcNotFound], l.sum[rcFinds]),
		"bicameral.find_ms":         median(l.findMs),
		"shortest.spfa_runs":        per(rcSpfaRuns),
		"shortest.spfa_relax":       per(rcSpfaRelax),
		"shortest.relax_per_edge":   ratio(l.sum[rcSpfaRelax], l.runEdges),
		"shortest.negcycle_frac":    ratio(l.sum[rcNegCycles], l.sum[rcSpfaRuns]),
		"residual.applies":          ratio(l.applies, n),
		"residual.edges_flipped":    ratio(l.flipped, n),
		"residual.rebuilds":         ratio(l.rebuilds, n),
		"graph.decode_us":           median(l.decodeUs),
		"graph.payload_kb":          mean(l.payloadB) / 1e3,
		"solvecache.fingerprint_us": median(l.fingerprintUs),
	}
}
