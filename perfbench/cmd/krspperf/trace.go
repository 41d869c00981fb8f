package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// span is one timed interval at a layer boundary. Spans of one solve or
// request share trace; parent indexes the enclosing span (-1 at the root).
// Times are nanoseconds on obs.RealClock, the clock the flight recorder
// stamps its events with, so recorder-derived spans line up with ours.
type span struct {
	trace      string
	parent     int
	name       string
	start, end int64
}

// tracer keeps every span of a traced run in memory until the run ends.
// A nil tracer records nothing, which is how untraced runs pay no cost.
type tracer struct {
	spans []span
	ids   *rand.Rand
}

func newTracer(seed int64) *tracer {
	return &tracer{ids: rand.New(rand.NewSource(seed))}
}

// newTrace mints a W3C trace-id (32 hex digits) from the run's seed.
func (t *tracer) newTrace() string {
	if t == nil {
		return ""
	}
	return fmt.Sprintf("%016x%016x", t.ids.Uint64(), t.ids.Uint64()|1)
}

// add records a span and returns its index for use as a parent.
func (t *tracer) add(trace string, parent int, name string, start, end int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{trace: trace, parent: parent, name: name, start: start, end: end})
	return len(t.spans) - 1
}

// addSolve turns one solve's flight-recorder events into child spans of
// the core.solve span at parent: the phase-start/phase-end pairs become
// phase spans, and each search-done event closes a bicameral.find span
// that opened at the event before it (the Find call records nothing else).
// It returns the bicameral.find durations in milliseconds.
func (t *tracer) addSolve(trace string, parent int, events []rec.Event) []float64 {
	if t == nil {
		return nil
	}
	open := map[int64]int64{}
	cancelSpan := -1
	var finds [][2]int64
	for i, ev := range events {
		switch ev.Kind {
		case rec.KindPhaseStart:
			open[ev.Args[0]] = ev.T
		case rec.KindPhaseEnd:
			start, ok := open[ev.Args[0]]
			if !ok {
				continue
			}
			delete(open, ev.Args[0])
			idx := t.add(trace, parent, obs.Phase(ev.Args[0]).String(), start, ev.T)
			if obs.Phase(ev.Args[0]) == obs.PhaseCancel {
				cancelSpan = idx
			}
		case rec.KindSearchDone:
			if i > 0 {
				finds = append(finds, [2]int64{events[i-1].T, ev.T})
			}
		}
	}
	var ms []float64
	for _, f := range finds {
		p := cancelSpan
		if p < 0 {
			p = parent
		}
		t.add(trace, p, "bicameral.find", f[0], f[1])
		ms = append(ms, float64(f[1]-f[0])/1e6)
	}
	return ms
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[string]int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && s.parent < len(spans) {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.name] += (s.end - s.start) - covered(iv)
	}
	return out
}

// covered is the total length of the union of half-open intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	have := false
	for _, x := range iv {
		switch {
		case !have:
			curLo, curHi, have = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if have {
		total += curHi - curLo
	}
	return total
}

// writeChrome dumps the spans in Chrome trace_event format (complete "X"
// events, microseconds), one thread row per trace.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	rows := map[string]int{}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if _, ok := rows[s.trace]; !ok {
			rows[s.trace] = len(rows)
		}
		evs = append(evs, event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: rows[s.trace],
			Args: map[string]any{"trace": s.trace, "span": i, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
