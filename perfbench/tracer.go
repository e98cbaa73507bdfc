package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"faultspace"
	"faultspace/internal/telemetry"
)

// tracer records the benchmark's own spans around every call into a
// layer's public functions, and keeps per-name totals for the per-layer
// metrics. A nil *tracer is the untraced mode: start returns a shared
// no-op without reading the clock, so end-to-end runs pay nothing.
type tracer struct {
	rec *telemetry.SpanRecorder

	mu    sync.Mutex
	total map[string]time.Duration
	count map[string]int
}

// benchScope is the timeline thread of a single-caller workload; the
// service-mix clients use "client-a" and "client-b".
const benchScope = "bench"

func newTracer() *tracer {
	return &tracer{
		rec:   telemetry.NewSpanRecorder(faultspace.NewTraceID(), benchScope, 1<<20),
		total: make(map[string]time.Duration),
		count: make(map[string]int),
	}
}

func nop() {}

// start opens a span named name on the scope's timeline thread and
// returns the function that closes it.
func (t *tracer) start(scope, name string) func() {
	if t == nil {
		return nop
	}
	t0 := time.Now()
	return func() { t.add(telemetry.Span{Scope: scope, Name: name, Start: t0, Dur: time.Since(t0)}) }
}

// add records a completed span — the benchmark's own, or one the program
// recorded — and adds it to its name's totals.
func (t *tracer) add(s telemetry.Span) {
	if t == nil {
		return
	}
	t.rec.Add(s)
	t.mu.Lock()
	t.total[s.Name] += s.Dur
	t.count[s.Name]++
	t.mu.Unlock()
}

// addTime adds time spent in many short calls (checkpoint appends, one
// per experiment) to name's total without recording a span for each.
func (t *tracer) addTime(name string, d time.Duration, calls int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total[name] += d
	t.count[name] += calls
	t.mu.Unlock()
}

// ms returns name's total time in milliseconds.
func (t *tracer) ms(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.total[name]) / 1e6
}

// writeChrome exports the recorded timeline with the program's own
// Chrome trace writer; the file loads in Perfetto.
func (t *tracer) writeChrome(w io.Writer) error {
	if d := t.rec.Dropped(); d > 0 {
		return fmt.Errorf("trace: %d spans dropped", d)
	}
	return faultspace.WriteChromeTrace(w, t.rec.TraceID(), t.rec.Spans())
}

// timeline is the part of a Chrome trace-event file that self time is
// computed from.
type timeline struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
		Args struct {
			Name string `json:"name"`
		} `json:"args"`
	} `json:"traceEvents"`
}

// selfTime holds, per span name, the summed duration and self time (the
// duration minus the part its child spans cover), in microseconds.
type selfTime struct {
	Total map[string]float64
	Self  map[string]float64
}

// selfTimes reads a Chrome trace and computes self time per span name
// over the threads whose name starts with one of scopePrefixes. A child
// is a later span on the same thread that starts and ends within its
// parent; spans on one benchmark thread nest strictly, since each is a
// call made by one goroutine.
func selfTimes(r io.Reader, scopePrefixes ...string) (selfTime, error) {
	var doc timeline
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return selfTime{}, fmt.Errorf("trace: %w", err)
	}
	keep := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" || ev.Name != "thread_name" {
			continue
		}
		for _, p := range scopePrefixes {
			if strings.HasPrefix(ev.Args.Name, p) {
				keep[ev.Tid] = true
			}
		}
	}
	type node struct {
		name     string
		ts, end  float64
		children float64
	}
	byTid := make(map[int][]*node)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && keep[ev.Tid] {
			byTid[ev.Tid] = append(byTid[ev.Tid], &node{name: ev.Name, ts: ev.Ts, end: ev.Ts + ev.Dur})
		}
	}
	st := selfTime{Total: make(map[string]float64), Self: make(map[string]float64)}
	// Timestamps are microseconds as floats; allow for their rounding
	// when deciding containment.
	const eps = 0.01
	for _, nodes := range byTid {
		sort.SliceStable(nodes, func(i, j int) bool {
			if nodes[i].ts != nodes[j].ts {
				return nodes[i].ts < nodes[j].ts
			}
			return nodes[i].end > nodes[j].end
		})
		var stack []*node
		for _, n := range nodes {
			// Sorted by start, so the innermost open span that ends no
			// earlier than n is n's parent.
			for len(stack) > 0 && stack[len(stack)-1].end < n.end-eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				stack[len(stack)-1].children += n.end - n.ts
			}
			stack = append(stack, n)
		}
		for _, n := range nodes {
			st.Total[n.name] += n.end - n.ts
			st.Self[n.name] += n.end - n.ts - n.children
		}
	}
	return st, nil
}

// layerShares folds self time by layer (the span name up to its first
// dot) as shares of the total self time.
func (st selfTime) layerShares() map[string]float64 {
	var sum float64
	out := make(map[string]float64)
	for name, self := range st.Self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += self
		sum += self
	}
	for k := range out {
		if sum > 0 {
			out[k] /= sum
		}
	}
	return out
}

// finishTrace writes the Chrome trace, computes self time per layer from
// it, and reports the share of pass time no layer span covers.
func finishTrace(cfg *config, tr *tracer, out *outcome, passSpan string, scopes ...string) error {
	if len(scopes) == 0 {
		scopes = []string{benchScope}
	}
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return err
	}
	f, err := os.Create(cfg.traceOut)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(cfg.traceOut)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := selfTimes(f, scopes...)
	if err != nil {
		return err
	}
	if st.Total[passSpan] > 0 {
		out.values["bench.unattributed_frac"] = st.Self[passSpan] / st.Total[passSpan]
	}
	for layer, share := range st.layerShares() {
		out.notes = append(out.notes, fmt.Sprintf("self-time share %-10s %6.2f%%", layer, 100*share))
	}
	out.notes = append(out.notes, "trace: "+cfg.traceOut)
	return nil
}
