package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/rec"
)

// cfg carries the parsed flags of one invocation.
type cfgT struct {
	chrome string
	dir    string
}

func newFlags(out io.Writer) (*flag.FlagSet, *cfgT) {
	fs := flag.NewFlagSet("krsptrace", flag.ContinueOnError)
	cfg := &cfgT{}
	fs.StringVar(&cfg.chrome, "chrome", "",
		`write Chrome trace_event JSON to this file ("-" = stdout) instead of the report`)
	fs.StringVar(&cfg.dir, "dir", "",
		"aggregate report over every *.jsonl dump in this directory")
	fs.SetOutput(out)
	return fs, cfg
}

// readDump parses one JSONL flight-recorder dump.
func readDump(in io.Reader) (rec.Header, []rec.Event, error) {
	return rec.ReadJSONL(in)
}

// fallbackReasons names the KindFallback reason codes for display.
func fallbackReason(code int64) string {
	switch code {
	case rec.FallbackIterCap:
		return "iteration-cap"
	case rec.FallbackSearchExhausted:
		return "search-exhausted"
	case rec.FallbackCheaper:
		return "endpoint-cheaper"
	case rec.FallbackRepeat:
		return "state-repeat"
	default:
		return fmt.Sprintf("reason-%d", code)
	}
}

// flagNames renders a KindSolveEnd flags bitmask.
func flagNames(flags int64) string {
	var parts []string
	if flags&rec.FlagDegraded != 0 {
		parts = append(parts, "degraded")
	}
	if flags&rec.FlagExact != 0 {
		parts = append(parts, "exact")
	}
	if flags&rec.FlagRelaxedCap != 0 {
		parts = append(parts, "relaxed-cap")
	}
	if flags&rec.FlagFellBack != 0 {
		parts = append(parts, "fell-back")
	}
	if len(parts) == 0 {
		return "ok"
	}
	return strings.Join(parts, ",")
}

// phaseSpan is one matched phase-start/phase-end pair.
type phaseSpan struct {
	phase      obs.Phase
	start, end int64
	depth      int
}

// phaseSpans pairs phase events in stream order. Phases nest (a scaled
// solve wraps an inner solve), so starts push a stack and ends pop it;
// an unmatched start closes at the last event's timestamp.
func phaseSpans(evs []rec.Event) []phaseSpan {
	var spans []phaseSpan
	var open []int // indices into spans
	for _, ev := range evs {
		switch ev.Kind {
		case rec.KindPhaseStart:
			spans = append(spans, phaseSpan{
				phase: obs.Phase(ev.Args[0]), start: ev.T, end: ev.T, depth: len(open),
			})
			open = append(open, len(spans)-1)
		case rec.KindPhaseEnd:
			// Pop the innermost open span for this phase (ends arrive in
			// LIFO order from the deferred span closes).
			for i := len(open) - 1; i >= 0; i-- {
				if spans[open[i]].phase == obs.Phase(ev.Args[0]) {
					spans[open[i]].end = ev.T
					open = append(open[:i], open[i+1:]...)
					break
				}
			}
		}
	}
	if len(evs) > 0 {
		last := evs[len(evs)-1].T
		for _, i := range open {
			spans[i].end = last
		}
	}
	return spans
}

// bar renders a width-character gantt bar for [start, end] within
// [t0, t0+span].
func bar(start, end, t0, span int64, width int) string {
	if span <= 0 {
		return ""
	}
	from := int((start - t0) * int64(width) / span)
	to := int((end - t0) * int64(width) / span)
	if to <= from {
		to = from + 1
	}
	if to > width {
		to = width
	}
	return strings.Repeat(".", from) + strings.Repeat("#", to-from) + strings.Repeat(".", width-to)
}

// report renders the human-readable solve report: header, phase timeline,
// duality-gap convergence table, decision log, and event census.
func report(w io.Writer, hdr rec.Header, evs []rec.Event) error {
	trace := hdr.Trace
	if trace == "" {
		trace = "(untraced)"
	}
	fmt.Fprintf(w, "trace %s  schema %d  events %d", trace, hdr.Schema, len(evs))
	if hdr.Dropped > 0 {
		fmt.Fprintf(w, "  (ring wrapped: %d of %d dropped)", hdr.Dropped, hdr.Total)
	}
	fmt.Fprintln(w)
	if len(evs) == 0 {
		fmt.Fprintln(w, "empty trace")
		return nil
	}
	t0 := evs[0].T
	span := evs[len(evs)-1].T - t0

	// Result line from the outermost (last) solve-end.
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == rec.KindSolveEnd {
			a := evs[i].Args
			fmt.Fprintf(w, "result: cost=%d delay=%d iterations=%d outcome=%s\n",
				a[0], a[1], a[2], flagNames(a[3]))
			break
		}
	}

	spans := phaseSpans(evs)
	if len(spans) > 0 {
		fmt.Fprintf(w, "\nphase timeline (Δt from first event):\n")
		for _, s := range spans {
			label := strings.Repeat("  ", s.depth) + s.phase.String()
			fmt.Fprintf(w, "  %8d .. %-8d  %-14s %s (%d)\n",
				s.start-t0, s.end-t0, label, bar(s.start, s.end, t0, span, 30), s.end-s.start)
		}
	}

	printedHeader := false
	for _, ev := range evs {
		if ev.Kind != rec.KindDualityGap {
			continue
		}
		if !printedHeader {
			fmt.Fprintf(w, "\nduality-gap convergence:\n")
			fmt.Fprintf(w, "  %5s  %12s  %12s  %10s\n", "iter", "feasible", "dual-floor", "gap")
			printedHeader = true
		}
		fmt.Fprintf(w, "  %5d  %12d  %12d  %10d\n", ev.Args[0], ev.Args[1], ev.Args[2], ev.Args[3])
	}

	printedHeader = false
	decision := func(t int64, format string, args ...any) {
		if !printedHeader {
			fmt.Fprintf(w, "\ndecisions:\n")
			printedHeader = true
		}
		fmt.Fprintf(w, "  t=%-8d %s\n", t-t0, fmt.Sprintf(format, args...))
	}
	for _, ev := range evs {
		switch ev.Kind {
		case rec.KindDegraded:
			decision(ev.T, "degraded: deadline fired in phase %s", obs.Phase(ev.Args[0]))
		case rec.KindCRefEscalate:
			decision(ev.T, "cref-escalate: C_ref %d -> %d", ev.Args[0], ev.Args[1])
		case rec.KindRelaxedCap:
			decision(ev.T, "relaxed-cap: consumed fallback candidate cost=%d delay=%d", ev.Args[0], ev.Args[1])
		case rec.KindFallback:
			if ev.Args[0] == rec.FallbackRepeat {
				decision(ev.T, "fallback: returned phase-1 endpoint (%s, period %d)", fallbackReason(ev.Args[0]), ev.Args[1])
			} else {
				decision(ev.T, "fallback: returned phase-1 endpoint (%s)", fallbackReason(ev.Args[0]))
			}
		case rec.KindResidualRebuild:
			decision(ev.T, "residual-rebuild: full rebuild at iteration %d", ev.Args[0])
		case rec.KindFaultHit:
			decision(ev.T, "fault-hit: %s", fault.Point(ev.Args[0]))
		}
	}

	var counts [rec.NumKinds]int
	for _, ev := range evs {
		if ev.Kind < rec.NumKinds {
			counts[ev.Kind]++
		}
	}
	fmt.Fprintf(w, "\nevent census:\n")
	for k := rec.Kind(0); k < rec.NumKinds; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(w, "  %-18s %d\n", k.String(), counts[k])
		}
	}
	return nil
}
