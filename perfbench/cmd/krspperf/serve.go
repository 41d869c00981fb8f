package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemon is one krspd child process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives cmd.Wait's result once the process exits
	log  *os.File
}

// startDaemon launches krspd with a fingerprint cache of cacheSize entries
// and a default per-solve deadline, and waits until /healthz answers.
func startDaemon(bin, logPath string, cacheSize int, deadline time.Duration) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-cache", strconv.Itoa(cacheSize), "-deadline", deadline.String())
	cmd.Stdout, cmd.Stderr = logf, logf
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start krspd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1), log: logf}
	go d.wait()
	client := &http.Client{Timeout: time.Second}
	for start := time.Now(); time.Since(start) < 20*time.Second; time.Sleep(5 * time.Millisecond) {
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("krspd exited during start-up: %v (log %s)", err, logPath)
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	d.stop()
	return nil, fmt.Errorf("krspd did not become healthy within 20s (log %s)", logPath)
}

// wait reaps the child; it ends when the process does.
func (d *daemon) wait() { d.done <- d.cmd.Wait() }

// stop sends SIGTERM, escalates to SIGKILL after 10 s, and returns only
// once the process has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // the Wait below reports how it ended
		<-d.done
	}
	d.log.Close()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// scrape reads krspd's /metrics and the memstats of /debug/vars.
type scrape struct {
	prom     promSnap
	memstats struct {
		TotalAlloc   float64
		NumGC        float64
		PauseTotalNs float64
	}
}

func (d *daemon) scrape(client *http.Client) (scrape, error) {
	var s scrape
	body, err := get(client, d.base+"/metrics")
	if err != nil {
		return s, err
	}
	if s.prom, err = parseProm(string(body)); err != nil {
		return s, err
	}
	if body, err = get(client, d.base+"/debug/vars"); err != nil {
		return s, err
	}
	var vars struct {
		Memstats json.RawMessage `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return s, fmt.Errorf("/debug/vars: %w", err)
	}
	if err := json.Unmarshal(vars.Memstats, &s.memstats); err != nil {
		return s, fmt.Errorf("/debug/vars memstats: %w", err)
	}
	return s, nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, err
}

// newClient allows at most conns connections to krspd.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// requestSeq draws the serve-mix request order: with probability repeat a
// request re-sends one of the last `window` distinct payloads (a likely
// cache hit); otherwise it sends the next pool payload in order, and the
// pool is larger than krspd's cache, so by the time the order wraps the
// payload has been evicted (a miss, a solve and an insert).
func requestSeq(seed int64, n, poolSize int, repeat float64, window int) []int {
	r := rand.New(rand.NewSource(seed))
	seq := make([]int, 0, n)
	var recent []int
	next := 0
	for len(seq) < n {
		if len(recent) > 0 && r.Float64() < repeat {
			seq = append(seq, recent[r.Intn(len(recent))])
			continue
		}
		seq = append(seq, next)
		recent = append(recent, next)
		if len(recent) > window {
			recent = recent[1:]
		}
		next = (next + 1) % poolSize
	}
	return seq
}

// sent is what the generator saw of one request.
type sent struct {
	item      int
	due, send int64 // due time and actual send time (now() readings)
	done      int64
	lagNs     int64 // send − max(due, connection free): the generator's own lateness
	backlog   int   // requests already due but not yet sent, at send time
	code      int
	resp      solveResp
	err       error
	trace     string
}

// rung is one fixed-rate step of the ladder.
type rung struct {
	rate  float64
	conns int
	reqs  []sent
}

// runRung sends seq[i] at start + i/rate for every i with i/rate < seconds,
// over at most conns connections. A request that falls due while every
// connection is busy waits, and its latency counts from when it was due.
func runRung(client *http.Client, base string, items []item, seq []int, rate, seconds float64, conns int, tr *tracer) rung {
	n := int(rate * seconds)
	if n > len(seq) {
		n = len(seq)
	}
	out := rung{rate: rate, conns: conns, reqs: make([]sent, n)}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	interval := float64(time.Second) / rate
	start := now() + int64(10*time.Millisecond)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	traces := make([]string, n)
	for i := range traces {
		traces[i] = tr.newTrace()
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := now()
			for i := claim(); i < n; i = claim() {
				due := start + int64(float64(i)*interval)
				if wait := due - now(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				s := &out.reqs[i]
				s.item, s.due, s.trace = seq[i], due, traces[i]
				s.send = now()
				s.lagNs, s.backlog = account(start, interval, i, s.send, free)
				s.code, s.resp, s.err = post(client, base, items[seq[i]].payload, s.trace)
				s.done = now()
				free = s.done
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		for _, s := range out.reqs {
			root := tr.add(s.trace, -1, "request", s.due, s.done)
			tr.add(s.trace, root, "loadgen.wait", s.due, s.send)
			tr.add(s.trace, root, "http", s.send, s.done)
		}
	}
	return out
}

// account charges the generator for request i, sent at send by a
// connection that became free at free: lag is how late it went out beyond
// both its due time and the moment it could have gone out, and backlog is
// how many later requests were already due and still unsent.
func account(start int64, interval float64, i int, send, free int64) (lagNs int64, backlog int) {
	due := start + int64(float64(i)*interval)
	return send - max(due, free), max(0, int(float64(send-start)/interval)-i)
}

// post sends one solve; trace, when set, travels as a W3C traceparent.
func post(client *http.Client, base string, payload []byte, trace string) (int, solveResp, error) {
	var r solveResp
	req, err := http.NewRequest(http.MethodPost, base+"/solve", bytes.NewReader(payload))
	if err != nil {
		return 0, r, err
	}
	if trace != "" {
		req.Header.Set("traceparent", "00-"+trace+"-"+trace[:16]+"-01")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, r, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, r, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &r)
	}
	return resp.StatusCode, r, err
}

// rungStats summarises one rung against the latency limit.
type rungStats struct {
	rate     float64
	latMs    []float64 // answered requests, from each one's due time
	failed   int
	shed     int
	lagMaxMs float64
	growing  bool
	meetsSLO bool
	tail     tail
}

// summarise classifies each request: anything but a 2xx answer is a
// failure (a 429 shed among them) and stays out of the latency figures; a
// deadline-cut (degraded) 2xx answer counts with its full latency. The
// rung meets the SLO when the tail of its answered requests is within
// limitMs, none failed and the backlog did not grow.
func (r rung) summarise(limitMs float64) rungStats {
	st := rungStats{rate: r.rate}
	if len(r.reqs) == 0 {
		return st
	}
	backlog := make([]int, len(r.reqs))
	for i, s := range r.reqs {
		ms := float64(s.done-s.due) / 1e6
		st.lagMaxMs = max(st.lagMaxMs, float64(s.lagNs)/1e6)
		backlog[i] = s.backlog
		switch {
		case s.code == http.StatusTooManyRequests:
			st.shed++
			st.failed++
		case s.err != nil || s.code != http.StatusOK:
			st.failed++
		default:
			st.latMs = append(st.latMs, ms)
		}
	}
	st.growing = backlogGrows(backlog, r.conns)
	st.tail = tailOf(st.latMs)
	st.meetsSLO = st.tail.value <= limitMs && st.failed == 0 && !st.growing
	return st
}

// backlogGrows reports a backlog that rises through a rung: the requests
// of the last quarter found on average more requests waiting than those of
// the first quarter did, by more than the connections can absorb and by
// more than 1% of the rung's requests. A rung below capacity only
// fluctuates around a level; one above capacity queues a share of every
// second's arrivals.
func backlogGrows(backlog []int, conns int) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	avg := func(xs []int) float64 {
		sum := 0
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	rise := avg(backlog[len(backlog)-q:]) - avg(backlog[:q])
	return rise > float64(2*conns) && rise > 0.01*float64(len(backlog))
}
