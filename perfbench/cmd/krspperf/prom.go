package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnap is a parsed /metrics body, keyed by name plus sorted labels.
type promSnap map[string]promSample

// parseProm reads the text exposition format 0.0.4 as krspd writes it:
// `name{k="v",...} value` lines, with # comments skipped.
func parseProm(body string) (promSnap, error) {
	snap := promSnap{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		head := line[:sp]
		s := promSample{name: head, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(head, '{'); i >= 0 {
			if !strings.HasSuffix(head, "}") {
				return nil, fmt.Errorf("metrics line %q: unterminated labels", line)
			}
			s.name = head[:i]
			for _, kv := range strings.Split(head[i+1:len(head)-1], ",") {
				k, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("metrics line %q: bad label %q", line, kv)
				}
				s.labels[k] = strings.Trim(val, `"`)
			}
		}
		snap[promKey(s.name, s.labels)] = s
	}
	return snap, sc.Err()
}

func promKey(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + labels[k])
	}
	return b.String()
}

// minus returns the per-sample difference after − before: counters and
// histogram buckets become counts over the interval between two scrapes.
func (after promSnap) minus(before promSnap) promSnap {
	out := promSnap{}
	for k, s := range after {
		d := s
		d.value -= before[k].value
		out[k] = d
	}
	return out
}

// get is the value of one sample; labels are given as k, v pairs.
func (p promSnap) get(name string, kv ...string) float64 {
	labels := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		labels[kv[i]] = kv[i+1]
	}
	return p[promKey(name, labels)].value
}

// histMean is _sum/_count of a histogram family with the given labels.
func (p promSnap) histMean(family string, kv ...string) float64 {
	return ratio(p.get(family+"_sum", kv...), p.get(family+"_count", kv...))
}

// histQuantile estimates the q-quantile of a histogram the way Prometheus'
// histogram_quantile does: find the cumulative bucket holding rank q·count
// and interpolate linearly inside it (the first bucket starts at 0). A rank
// in the +Inf bucket reports the highest finite bound.
func (p promSnap) histQuantile(family string, q float64, kv ...string) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	want := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		want[kv[i]] = kv[i+1]
	}
	for _, s := range p {
		if s.name != family+"_bucket" || !labelsMatch(s.labels, want) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, s.value})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

// labelsMatch reports whether got carries every want label (le aside).
func labelsMatch(got, want map[string]string) bool {
	if len(got) != len(want)+1 {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}
