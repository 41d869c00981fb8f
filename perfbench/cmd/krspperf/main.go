// Command krspperf is the repository benchmark. It runs one workload for a
// fixed time, checks every output, prints a human report and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.
//
//	krspperf --workload mix-small|grid-large|serve-mix --seed N --seconds S
//	         --trace 0|1 --krspd PATH --out DIR
//
// --trace 0 measures the end-to-end metrics with every sink off (Metrics
// and Recorder nil). --trace 1 measures the per-layer metrics: the same
// fixed work runs once untraced and once traced, and the difference is
// trace.overhead_frac. Spans go to DIR/spans-<workload>-<seed>.json when the
// run ends. perfbench/README.md documents the workloads and metrics;
// perfbench/run.sh builds this command and krspd and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. "op" is one solve on the
// library workloads and one request at the reference rate on serve-mix.
// The tail latency is printed in the report but not listed here: on
// serve-mix it follows the host's scheduling stalls (its p99 spread 50%
// across one set of ten runs), and this list is shared by every workload.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"cost_ratio", "ratio"},
	{"alloc_mb_per_op", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, by module.
var perLayer = []metricDef{
	{"core.phase1_ms", "ms"},
	{"core.cancel_ms", "ms"},
	{"core.decompose_ms", "ms"},
	{"core.cancel_frac", "frac"},
	{"core.cancel_iters", "count"},
	{"core.lambda_iters", "count"},
	{"core.fallback_frac", "frac"},
	{"core.cut_frac", "frac"},
	{"flow.mincost_calls", "count"},
	{"flow.augmentations", "count"},
	{"flow.relax", "count"},
	{"bicameral.finds", "count"},
	{"bicameral.searches", "count"},
	{"bicameral.candidates", "count"},
	{"bicameral.budgets", "count"},
	{"bicameral.found_frac", "frac"},
	{"bicameral.find_ms", "ms"},
	{"shortest.spfa_runs", "count"},
	{"shortest.spfa_relax", "count"},
	{"shortest.relax_per_edge", "count"},
	{"shortest.negcycle_frac", "frac"},
	{"residual.applies", "count"},
	{"residual.edges_flipped", "count"},
	{"residual.rebuilds", "count"},
	{"graph.decode_us", "us"},
	{"graph.payload_kb", "KB"},
	{"solvecache.fingerprint_us", "us"},
	{"solvecache.hit_frac", "frac"},
	{"solvecache.collapsed", "count"},
	{"krspd.server_ms_p50", "ms"},
	{"krspd.solve_ms", "ms"},
	{"krspd.wait_ms", "ms"},
	{"krspd.shed", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.lag_ms_max", "ms"},
	{"trace.overhead_frac", "frac"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	krspd    string
	out      string
	log      io.Writer // the human report
}

// result is what a workload run hands back for the final JSON line.
type result struct {
	attempted, failed int
	cut               int // answered, but degraded by a deadline
	checkErrs         []error
	metrics           map[string]float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("krspperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var seconds, trace int
	fs.StringVar(&cfg.workload, "workload", "", "mix-small, grid-large or serve-mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 30, "how long the run measures")
	fs.IntVar(&trace, "trace", 0, "1 measures the per-layer metrics in a traced run")
	fs.StringVar(&cfg.krspd, "krspd", "", "krspd binary (serve-mix, and the traced runs' serving probe)")
	fs.StringVar(&cfg.out, "out", ".", "directory for span dumps and krspd logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds, cfg.traced, cfg.log = float64(seconds), trace == 1, stdout
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "krspperf: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "krspperf: unknown workload %q (want mix-small, grid-large or serve-mix)\n", cfg.workload)
		return 2
	}
	if cfg.krspd == "" {
		fmt.Fprintln(stderr, "krspperf: --krspd is required")
		return 2
	}
	env, _ := json.Marshal(currentEnv(cfg.workload, cfg.seed))
	fmt.Fprintf(stdout, "env %s\n", env)
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "krspperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "krspperf: %s: metric %s was not measured\n", cfg.workload, d.name)
			return 1
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Fprintf(stdout, "metric %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, e := range res.checkErrs {
		fmt.Fprintf(stderr, "krspperf: output check failed: %v\n", e)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(res.checkErrs) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Fprintf(stdout, "%s\n", line)
	if len(res.checkErrs) > 0 {
		return 1
	}
	return 0
}

// Workload settings. perfbench/README.md states them too.
const (
	smallDeadline = 10 * time.Millisecond // mix-small and serve-mix per-solve deadline
	gridDeadline  = 4 * time.Second       // grid-large per-solve deadline
	setupReps     = 3                     // set-ups per run; setup_s is their median
)

// inputs is what a library workload's set-up produces: at(i) is the i-th
// solve of the closed loop, fixed the traced run's fixed work.
type inputs struct {
	at    func(i int) item
	fixed []item
}

var workloads = map[string]func(runConfig) (result, error){
	"mix-small": func(cfg runConfig) (result, error) {
		w := libWorkload{deadline: smallDeadline, probe: seqInts(32)}
		return runLibrary(cfg, w, func() (inputs, error) {
			st := newSmallStream(cfg.seed)
			warm := make([]item, warmBlock)
			for i := range warm {
				warm[i] = st.next()
			}
			at := func(i int) item {
				if i < len(warm) {
					return warm[i]
				}
				return st.next()
			}
			return inputs{at: at, fixed: warm}, nil
		})
	},
	"grid-large": func(cfg runConfig) (result, error) {
		w := libWorkload{
			opts:     core.Options{Phase1Kernel: "scaled"},
			deadline: gridDeadline,
			pass:     gridSuiteSize,
			probe:    []int{1},
		}
		return runLibrary(cfg, w, func() (inputs, error) {
			suite, err := gridSuite()
			if err != nil {
				return inputs{}, err
			}
			return inputs{at: func(i int) item { return suite[i%len(suite)] }, fixed: suite}, nil
		})
	},
	"serve-mix": runServe,
}

func concat(lists ...[]error) []error {
	var out []error
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// timedSetup runs build setupReps times and returns the last result and
// the median set-up time in seconds.
func timedSetup[T any](build func() (T, error)) (T, float64, error) {
	var v T
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, err
		}
		times = append(times, float64(now()-t0)/1e9)
	}
	return v, median(times), nil
}

// runLibrary runs mix-small or grid-large.
func runLibrary(cfg runConfig, w libWorkload, build func() (inputs, error)) (result, error) {
	in, setupS, err := timedSetup(build)
	if err != nil {
		return result{}, err
	}
	if !cfg.traced {
		st := runLoop(w, in.at, now()+int64(cfg.seconds*1e9), 0, nil, nil, nil)
		m := st.e2e()
		m["setup_s"] = setupS
		t := tailOf(st.latMs)
		fmt.Fprintf(cfg.log, "solve_ms_p50 %.4f ms  solve_ms_tail %.4f ms (p%g, %d beyond, %d samples)  solves_per_s %.3f 1/s\n",
			m["op_ms_p50"], t.value, t.percentile, t.beyond, t.samples, m["ops_per_s"])
		fmt.Fprintf(cfg.log, "fail_frac %.5f (%d of %d: errors, failed checks)  cut_frac %.5f (%d deadline-cut answers, %.1f%% of solve time)  cost_ratio %.5f  alloc_mb_per_solve %.4f MB\n",
			ratio(float64(st.failed), float64(st.attempts)), st.failed, st.attempts,
			ratio(float64(st.cut), float64(st.attempts)), st.cut, 100*ratio(float64(st.cutNs), float64(st.busyNs)),
			m["cost_ratio"], m["alloc_mb_per_op"])
		return result{attempted: st.attempts, failed: st.failed, cut: st.cut, checkErrs: st.checkErrs, metrics: m}, nil
	}
	// The fixed work runs untraced once to warm up, then traced, then
	// untraced again; the overhead compares the last two.
	fixed := func(i int) item { return in.fixed[i] }
	n := len(in.fixed)
	warm := runLoop(w, fixed, 0, n, nil, nil, nil)
	tr := newTracer(cfg.seed)
	reg := obs.New(obs.RealClock{})
	layers := &solverLayers{}
	traced := runLoop(w, fixed, 0, n, tr, reg, layers)
	plain := runLoop(w, fixed, 0, n, nil, nil, nil)
	if err := layers.measureInputs(in.fixed); err != nil {
		return result{}, err
	}
	m := layers.metrics()
	m["runtime.gc_cycles"] = ratio(plain.gcCycles, float64(plain.attempts))
	m["runtime.gc_pause_ms"] = ratio(plain.gcPauseNs/1e6, float64(plain.attempts))
	m["loadgen.lag_ms_max"] = plain.lagMaxMs
	all := func(s loopStats) float64 { return float64(s.busyNs + s.failedNs) }
	m["trace.overhead_frac"] = ratio(all(traced), all(plain)) - 1
	var probe []item
	for _, i := range w.probe {
		probe = append(probe, in.fixed[i])
	}
	pr, err := servingProbe(cfg, probe, w.deadline)
	if err != nil {
		return result{}, err
	}
	for k, v := range pr.metrics {
		m[k] = v
	}
	res := result{
		attempted: warm.attempts + traced.attempts + plain.attempts + pr.attempted,
		failed:    warm.failed + traced.failed + plain.failed + pr.failed,
		checkErrs: concat(warm.checkErrs, traced.checkErrs, plain.checkErrs, pr.checkErrs),
		metrics:   m,
	}
	return res, finishTrace(cfg, tr)
}

// finishTrace writes the spans and prints each layer's self time.
func finishTrace(cfg runConfig, tr *tracer) error {
	self := selfTimes(tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(cfg.log, "self_ms %-16s %12.3f\n", n, float64(self[n])/1e6)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	fmt.Fprintf(cfg.log, "spans %d written to %s\n", len(tr.spans), path)
	return tr.writeChrome(path)
}
