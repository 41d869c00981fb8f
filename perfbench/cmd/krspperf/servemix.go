package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// serve-mix settings. perfbench/README.md states them too.
const (
	serveCache  = 64   // krspd -cache; the pool holds smallPoolSize distinct payloads
	serveRepeat = 0.25 // share of requests that re-send a recent payload
	serveWindow = 16   // how far back a repeat reaches, in distinct payloads
	sloLimitMs  = 50.0 // the tail latency a ladder rung must stay within
	refRung     = 0    // ladder index whose latency is op_ms_p50 / op_ms_tail
)

// ladder is the open-loop request rates, in requests per second; each rung
// runs for an equal share of --seconds.
var ladder = []float64{150, 300, 600}

// conns caps the generator's connections at the machine's CPU count.
func conns() int { return runtime.NumCPU() }

type serveSetup struct {
	items []item
	seq   []int
}

func runServe(cfg runConfig) (result, error) {
	client := newClient(conns())
	logPath := filepath.Join(cfg.out, "krspd.log")
	var live *daemon
	defer func() {
		if live != nil {
			live.stop()
		}
	}()
	requests := 0
	for _, rate := range ladder {
		requests += int(rate * cfg.seconds / float64(len(ladder)))
	}
	setup, setupS, err := timedSetup(func() (serveSetup, error) {
		if live != nil {
			live.stop()
			live = nil
		}
		items := smallPool(cfg.seed, smallPoolSize)
		seq := requestSeq(cfg.seed, requests, len(items), serveRepeat, serveWindow)
		var err error
		live, err = startDaemon(cfg.krspd, logPath, serveCache, smallDeadline)
		return serveSetup{items: items, seq: seq}, err
	})
	if err != nil {
		return result{}, err
	}
	items, seq := setup.items, setup.seq
	checker := newRefChecker(items, 0)
	if !cfg.traced {
		before, err := live.scrape(client)
		if err != nil {
			return result{}, err
		}
		var rungs []rungStats
		var all []sent
		off := 0
		for _, rate := range ladder {
			r := runRung(client, live.base, items, seq[off:], rate, cfg.seconds/float64(len(ladder)), conns(), nil)
			off += len(r.reqs)
			rungs = append(rungs, r.summarise(sloLimitMs))
			all = append(all, r.reqs...)
		}
		after, err := live.scrape(client)
		if err != nil {
			return result{}, err
		}
		res := checker.check(all)
		m := serveE2E(rungs, all, after.memstats.TotalAlloc-before.memstats.TotalAlloc)
		m["setup_s"] = setupS
		reportLadder(cfg, rungs, all)
		fmt.Fprintf(cfg.log, "fail_frac %.5f (%d of %d: errors, non-2xx incl. sheds, failed checks)  cut_frac %.5f (%d deadline-cut answers)  cost_ratio %.5f  alloc_mb_per_req %.4f MB\n",
			ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted,
			ratio(float64(res.cut), float64(res.attempted)), res.cut, m["cost_ratio"], m["alloc_mb_per_op"])
		res.metrics = m
		return res, nil
	}

	// Traced: the reference rung runs once untraced on the set-up daemon
	// and once traced on a fresh one, so both start with a cold cache.
	secs := cfg.seconds / 3
	plain := runRung(client, live.base, items, seq, ladder[refRung], secs, conns(), nil)
	live.stop()
	if live, err = startDaemon(cfg.krspd, logPath, serveCache, smallDeadline); err != nil {
		return result{}, err
	}
	before, err := live.scrape(client)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(cfg.seed)
	traced := runRung(client, live.base, items, seq, ladder[refRung], secs, conns(), tr)
	after, err := live.scrape(client)
	if err != nil {
		return result{}, err
	}
	res := checker.check(append(append([]sent(nil), plain.reqs...), traced.reqs...))
	var tracedLat []float64
	for _, s := range traced.reqs {
		tracedLat = append(tracedLat, float64(s.done-s.due)/1e6)
	}
	m := krspdLayers(after.prom.minus(before.prom), tracedLat)
	var plainLat []float64
	for _, s := range plain.reqs {
		plainLat = append(plainLat, float64(s.done-s.due)/1e6)
	}
	n := float64(len(traced.reqs))
	m["runtime.gc_cycles"] = ratio(after.memstats.NumGC-before.memstats.NumGC, n)
	m["runtime.gc_pause_ms"] = ratio((after.memstats.PauseTotalNs-before.memstats.PauseTotalNs)/1e6, n)
	ps := plain.summarise(sloLimitMs)
	m["loadgen.lag_ms_max"] = ps.lagMaxMs
	m["trace.overhead_frac"] = ratio(mean(tracedLat), mean(plainLat)) - 1

	// The solver layers: the payloads krspd had to solve (its misses),
	// solved once each in process with the same options and every sink on.
	var solved, requested []item
	seen, seenMiss := map[int]bool{}, map[int]bool{}
	for _, s := range traced.reqs {
		if !seen[s.item] {
			seen[s.item] = true
			requested = append(requested, items[s.item])
		}
		if s.resp.Cache != "hit" && !seenMiss[s.item] {
			seenMiss[s.item] = true
			solved = append(solved, items[s.item])
		}
	}
	reg := obs.New(obs.RealClock{})
	layers := &solverLayers{}
	inproc := runLoop(libWorkload{deadline: smallDeadline}, func(i int) item { return solved[i] }, 0, len(solved), tr, reg, layers)
	if err := layers.measureInputs(requested); err != nil {
		return result{}, err
	}
	for k, v := range layers.metrics() {
		if _, fromDaemon := m[k]; !fromDaemon {
			m[k] = v
		}
	}
	res.attempted += inproc.attempts
	res.failed += inproc.failed
	res.checkErrs = append(res.checkErrs, inproc.checkErrs...)
	res.metrics = m
	return res, finishTrace(cfg, tr)
}

// serveE2E computes the end-to-end metrics of an untraced ladder.
// ops_per_s is the request rate one connection sustains at the median
// request time (send to answer, over every rung). A mean would follow the
// host's stalls: two processes share the CPUs here, and answered requests
// per second of request time spread 20% over ten runs. The ladder's
// slo_rps is only reported: it moves in whole rungs, and one host stall
// can drop a rung.
func serveE2E(rungs []rungStats, all []sent, allocB float64) map[string]float64 {
	var ratios, serviceMs []float64
	for _, s := range all {
		if s.err != nil || s.code != http.StatusOK {
			continue
		}
		serviceMs = append(serviceMs, float64(s.done-s.send)/1e6)
		if s.resp.LowerBound > 0 {
			ratios = append(ratios, float64(s.resp.Cost)/float64(s.resp.LowerBound))
		}
	}
	return map[string]float64{
		"op_ms_p50":       median(rungs[refRung].latMs),
		"ops_per_s":       ratio(1e3, median(serviceMs)),
		"cost_ratio":      mean(ratios),
		"alloc_mb_per_op": ratio(allocB/1e6, float64(len(all))),
	}
}

func reportLadder(cfg runConfig, rungs []rungStats, all []sent) {
	slo := 0.0
	for _, r := range rungs {
		fmt.Fprintf(cfg.log, "rung %4.0f/s  req_ms_p50 %.4f ms  req_ms_tail %.4f ms (p%g, %d beyond, %d samples)  failed %d  shed %d  backlog_grows %v  lag_ms_max %.3f ms  meets_slo %v\n",
			r.rate, median(r.latMs), r.tail.value, r.tail.percentile, r.tail.beyond, r.tail.samples,
			r.failed, r.shed, r.growing, r.lagMaxMs, r.meetsSLO)
		if r.meetsSLO {
			slo = r.rate
		}
	}
	hits := 0
	for _, s := range all {
		if s.resp.Cache == "hit" {
			hits++
		}
	}
	fmt.Fprintf(cfg.log, "slo_rps %.0f 1/s (tail ≤ %.0f ms, no failures, no growing backlog)  cache hits %d of %d\n",
		slo, sloLimitMs, hits, len(all))
}

// krspdLayers reads the serving layers off a /metrics delta. clientMs are
// the client-side latencies of the same requests.
func krspdLayers(d promSnap, clientMs []float64) map[string]float64 {
	hits, misses := d.get("krsp_cache_hits_total"), d.get("krsp_cache_misses_total")
	serverMs := d.histMean("krspd_request_duration_seconds") * 1e3
	return map[string]float64{
		"krspd.server_ms_p50":  d.histQuantile("krspd_request_duration_seconds", 0.5) * 1e3,
		"krspd.solve_ms":       d.histMean("krsp_solve_phase_duration_seconds", "phase", "total") * 1e3,
		"krspd.wait_ms":        mean(clientMs) - serverMs,
		"krspd.shed":           d.get("krspd_shed_total"),
		"solvecache.hit_frac":  ratio(hits, hits+misses),
		"solvecache.collapsed": d.get("krsp_singleflight_collapsed_total"),
	}
}

// refChecker compares krspd answers with in-process solves of the same
// instances under krspd's options (the defaults), solving each once.
// A positive deadline bounds the reference solves as krspd's header did;
// a reference it cuts proves nothing, so only the answer's own structure
// is checked against the instance then.
type refChecker struct {
	items    []item
	deadline time.Duration
	refs     map[int]core.Result
}

func newRefChecker(items []item, deadline time.Duration) *refChecker {
	return &refChecker{items: items, deadline: deadline, refs: map[int]core.Result{}}
}

// check counts attempts, failures and deadline cuts, and runs the output
// check on every 2xx answer. A failure is an error, a non-2xx answer or a
// failed check. A deadline-cut (degraded) answer is checked against the
// instance alone and counts as answered, and in cut.
func (c *refChecker) check(reqs []sent) result {
	var res result
	for _, s := range reqs {
		res.attempted++
		if s.err != nil || s.code != http.StatusOK {
			res.failed++
			continue
		}
		if err := c.checkOne(s.item, s.resp); err != nil {
			res.checkErrs = append(res.checkErrs, err)
			res.failed++
		} else if s.resp.Degraded {
			res.cut++
		}
	}
	return res
}

func (c *refChecker) checkOne(i int, r solveResp) error {
	ins := c.items[i].ins
	if r.Degraded {
		return checkResponse(ins, r, nil)
	}
	ref, ok := c.refs[i]
	if !ok {
		ctx, cancel := deadlineCtx(c.deadline)
		var err error
		ref, err = core.SolveCtx(ctx, ins, core.Options{})
		cancel()
		if err != nil {
			return fmt.Errorf("%s: in-process reference: %w", ins.Name, err)
		}
		if err := checkResult(ins, ref); err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		c.refs[i] = ref
	}
	if ref.Stats.Degraded {
		return checkResponse(ins, r, nil)
	}
	return checkResponse(ins, r, &ref)
}

// servingProbe posts items to a fresh krspd once each, in order over one
// connection, so that a library workload's traced run also measures the
// serving layers on its own inputs, under the workload's deadline.
func servingProbe(cfg runConfig, items []item, deadline time.Duration) (result, error) {
	d, err := startDaemon(cfg.krspd, filepath.Join(cfg.out, "krspd.log"), serveCache, deadline)
	if err != nil {
		return result{}, err
	}
	defer d.stop()
	client := newClient(1)
	before, err := d.scrape(client)
	if err != nil {
		return result{}, err
	}
	reqs := make([]sent, len(items))
	var lat []float64
	for i, it := range items {
		s := &reqs[i]
		s.item, s.due, s.send = i, now(), now()
		s.code, s.resp, s.err = post(client, d.base, it.payload, "")
		s.done = now()
		lat = append(lat, float64(s.done-s.send)/1e6)
	}
	after, err := d.scrape(client)
	if err != nil {
		return result{}, err
	}
	res := newRefChecker(items, deadline).check(reqs)
	res.metrics = krspdLayers(after.prom.minus(before.prom), lat)
	return res, nil
}
