package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

func seq1(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: tailOf must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n             int
		value, pct    float64
		beyond, count int
	}{
		{n: 30000, value: 29700, pct: 99, beyond: 300, count: 30000},
		{n: 1000, value: 990, pct: 99, beyond: 10, count: 1000},
		{n: 999, value: 900, pct: 90, beyond: 99, count: 999}, // p99 would leave 9
		{n: 40, value: 30, pct: 75, beyond: 10, count: 40},
		{n: 25, value: 13, pct: 50, beyond: 12, count: 25}, // no ladder percentile fits
		{n: 5, value: 3, pct: 50, beyond: 2, count: 5},
	} {
		got := tailOf(seq1(c.n))
		if got.value != c.value || got.percentile != c.pct || got.beyond != c.beyond || got.samples != c.count {
			t.Errorf("n=%d: got %+v, want value %v at p%v with %d beyond of %d", c.n, got, c.value, c.pct, c.beyond, c.count)
		}
	}
	if got := (tailOf(nil) == tail{}); !got {
		t.Errorf("empty input must give the zero tail")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
}

func TestAccountLagAndBacklog(t *testing.T) {
	const ms = int64(time.Millisecond)
	interval := float64(10 * ms) // 100 requests per second
	// Request 3 is due at 30 ms. Its connection was free from 0 and it went
	// out at 31 ms: 1 ms generator lag, nothing else due yet.
	if lag, backlog := account(0, interval, 3, 31*ms, 0); lag != ms || backlog != 0 {
		t.Errorf("idle connection: lag %d backlog %d, want %d and 0", lag, backlog, ms)
	}
	// Request 3 went out at 75 ms because its connection was busy until
	// 75 ms: no generator lag, and requests 4–7 were already due.
	if lag, backlog := account(0, interval, 3, 75*ms, 75*ms); lag != 0 || backlog != 4 {
		t.Errorf("busy connection: lag %d backlog %d, want 0 and 4", lag, backlog)
	}
}

func TestBacklogGrows(t *testing.T) {
	flat := make([]int, 400)
	for i := range flat {
		flat[i] = i % 3
	}
	if backlogGrows(flat, 2) {
		t.Errorf("a fluctuating backlog was reported as growing")
	}
	ramp := make([]int, 400)
	for i := range ramp {
		ramp[i] = i / 10
	}
	if !backlogGrows(ramp, 2) {
		t.Errorf("a linearly rising backlog was not reported as growing")
	}
	if backlogGrows([]int{0, 50, 100}, 2) {
		t.Errorf("fewer than four samples cannot show growth")
	}
}

// TestRungCountsWaitFromDueTime drives a rung against a server slower
// than the schedule over one connection: every request after the first
// waits for the connection, that wait is in its latency, the generator
// itself is not charged for it, and the backlog is seen to grow.
func TestRungCountsWaitFromDueTime(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(20 * time.Millisecond):
		case <-release:
		}
		w.Write([]byte(`{"cost":1}`))
	}))
	defer srv.Close()
	items := []item{{payload: []byte("x")}}
	seq := make([]int, 40)
	r := runRung(newClient(1), srv.URL, items, seq, 200, 0.2, 1, nil)
	if len(r.reqs) != 40 {
		t.Fatalf("sent %d requests, want 40", len(r.reqs))
	}
	last := r.reqs[len(r.reqs)-1]
	if lat := time.Duration(last.done - last.due); lat < 500*time.Millisecond {
		t.Errorf("last request latency %v: the wait for the busy connection was not counted", lat)
	}
	st := r.summarise(1e9)
	if st.lagMaxMs > 15 {
		t.Errorf("generator lag %.1f ms includes connection wait", st.lagMaxMs)
	}
	if !st.growing {
		t.Errorf("a server at a quarter of the offered rate did not show a growing backlog")
	}
}

const cannedBefore = `# HELP krsp_cache_hits_total Cache hits.
# TYPE krsp_cache_hits_total counter
krsp_cache_hits_total 10
krsp_cache_misses_total 5
krsp_solve_phase_duration_seconds_bucket{phase="total",le="0.001"} 1
krsp_solve_phase_duration_seconds_bucket{phase="total",le="0.01"} 2
krsp_solve_phase_duration_seconds_bucket{phase="total",le="+Inf"} 2
krsp_solve_phase_duration_seconds_sum{phase="total"} 0.004
krsp_solve_phase_duration_seconds_count{phase="total"} 2
krsp_solve_phase_duration_seconds_sum{phase="cancel"} 0.5
`

const cannedAfter = `krsp_cache_hits_total 40
krsp_cache_misses_total 15
krsp_solve_phase_duration_seconds_bucket{phase="total",le="0.001"} 1
krsp_solve_phase_duration_seconds_bucket{phase="total",le="0.01"} 6
krsp_solve_phase_duration_seconds_bucket{phase="total",le="+Inf"} 12
krsp_solve_phase_duration_seconds_sum{phase="total"} 0.304
krsp_solve_phase_duration_seconds_count{phase="total"} 12
krsp_solve_phase_duration_seconds_sum{phase="cancel"} 0.5
`

func TestPrometheusDeltas(t *testing.T) {
	before, err := parseProm(cannedBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(cannedAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := after.minus(before)
	if got := d.get("krsp_cache_hits_total"); got != 30 {
		t.Errorf("counter delta = %v, want 30", got)
	}
	if got := d.get("krsp_solve_phase_duration_seconds_sum", "phase", "cancel"); got != 0 {
		t.Errorf("unchanged labelled sum delta = %v, want 0", got)
	}
	if got := d.histMean("krsp_solve_phase_duration_seconds", "phase", "total"); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("histogram mean over the interval = %v, want 0.03", got)
	}
	// Interval buckets: le=0.001 → 0, le=0.01 → 4, +Inf → 10. The median
	// rank 5 lies past the last finite bucket.
	if got := d.histQuantile("krsp_solve_phase_duration_seconds", 0.5, "phase", "total"); got != 0.01 {
		t.Errorf("median in the +Inf bucket = %v, want the top finite bound 0.01", got)
	}
	// Rank 2 of 10 lies in (0.001, 0.01], halfway through its 4 counts.
	if got := d.histQuantile("krsp_solve_phase_duration_seconds", 0.2, "phase", "total"); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("interpolated 0.2-quantile = %v, want 0.0055", got)
	}
	if _, err := parseProm("broken_line_without_value\n"); err == nil {
		t.Errorf("a line without a value must not parse")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{parent: -1, name: "root", start: 0, end: 100},
		{parent: 0, name: "a", start: 10, end: 30},
		{parent: 0, name: "a", start: 20, end: 50},  // overlaps its sibling
		{parent: 0, name: "b", start: 90, end: 120}, // runs past its parent
		{parent: 1, name: "leaf", start: 12, end: 18},
	}
	self := selfTimes(spans)
	// root: 100 − |[10,50) ∪ [90,100)| = 100 − 50.
	want := map[string]int64{"root": 50, "a": (20 - 6) + 30, "b": 30, "leaf": 6}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
}

func TestRequestSeqMixesRepeatsAndFreshPayloads(t *testing.T) {
	a := requestSeq(7, 4000, 256, 0.5, 16)
	b := requestSeq(7, 4000, 256, 0.5, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different sequence at %d", i)
		}
	}
	fresh, next := 0, 0
	for _, x := range a {
		if x == next {
			fresh++
			next = (next + 1) % 256
		}
	}
	if share := float64(fresh) / float64(len(a)); share < 0.45 || share > 0.55 {
		t.Errorf("fresh share %.3f, want ≈ 0.5", share)
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	items := smallPool(3, 2)
	ins := items[0].ins
	ref, err := core.Solve(ins, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(ins, ref); err != nil {
		t.Fatalf("a correct solve failed the check: %v", err)
	}
	bad := ref
	bad.Cost++
	if checkResult(ins, bad) == nil {
		t.Errorf("a misreported cost passed")
	}
	bad = ref
	bad.LowerBound = ref.Cost + 1
	if checkResult(ins, bad) == nil {
		t.Errorf("a lower bound above the cost passed")
	}
	bad = ref
	bad.Solution.Paths = bad.Solution.Paths[:1]
	if checkResult(ins, bad) == nil {
		t.Errorf("a solution with too few paths passed")
	}

	var resp solveResp
	resp.Cost, resp.Delay, resp.LowerBound = ref.Cost, ref.Delay, ref.LowerBound
	for _, p := range ref.Solution.Paths {
		var vs []int32
		for _, v := range p.Nodes(ins.G) {
			vs = append(vs, int32(v))
		}
		resp.Paths = append(resp.Paths, vs)
	}
	if err := checkResponse(ins, resp, &ref); err != nil {
		t.Fatalf("a correct response failed the check: %v", err)
	}
	dup := resp
	dup.Paths = nil
	for range resp.Paths {
		dup.Paths = append(dup.Paths, resp.Paths[0])
	}
	if checkResponse(ins, dup, &ref) == nil {
		t.Errorf("two copies of one path passed as edge-disjoint")
	}
	off := resp
	off.Delay++
	if checkResponse(ins, off, &ref) == nil {
		t.Errorf("a response differing from the in-process solve passed")
	}

	// A deadline-cut answer that passes the check is answered, not failed;
	// a non-2xx answer and a failed check are failures.
	cut := resp
	cut.Degraded = true
	res := newRefChecker(items, 0).check([]sent{
		{item: 0, code: http.StatusOK, resp: resp},
		{item: 0, code: http.StatusOK, resp: cut},
		{item: 0, code: http.StatusOK, resp: dup},
		{item: 0, code: http.StatusServiceUnavailable},
	})
	if res.attempted != 4 || res.failed != 2 || res.cut != 1 || len(res.checkErrs) != 1 {
		t.Errorf("check: %d attempted, %d failed, %d cut, %d check errors; want 4, 2, 1, 1",
			res.attempted, res.failed, res.cut, len(res.checkErrs))
	}
}

func TestSummariseKeepsCutAnswersAndFailsOnShed(t *testing.T) {
	const ms = int64(time.Millisecond)
	r := rung{rate: 100, conns: 2, reqs: []sent{
		{due: 0, done: 2 * ms, code: http.StatusOK},
		{due: 10 * ms, done: 22 * ms, code: http.StatusOK, resp: solveResp{Degraded: true}},
		{due: 20 * ms, done: 21 * ms, code: http.StatusTooManyRequests},
	}}
	st := r.summarise(50)
	if len(st.latMs) != 2 || st.latMs[1] != 12 {
		t.Errorf("latencies %v: the cut answer must count with its 12 ms", st.latMs)
	}
	if st.failed != 1 || st.shed != 1 || st.meetsSLO {
		t.Errorf("%d failed, %d shed, meets SLO %v: a shed is a failure and fails the rung", st.failed, st.shed, st.meetsSLO)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the names and units this
// command prints in step with the repository's BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: command has %d metrics, BENCHMARK.json %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i].name != c.want[i].Name || c.got[i].unit != c.want[i].Unit {
				t.Errorf("%s[%d]: command %v, BENCHMARK.json %v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}
