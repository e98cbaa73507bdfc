package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultSpanCapacity bounds a SpanRecorder when NewSpanRecorder is
// called with capacity <= 0. Spans are recorded at unit/phase
// granularity — not per experiment — so even long campaigns stay well
// under this; when they don't, Dropped() makes the truncation explicit.
const DefaultSpanCapacity = 4096

// TraceID is a 128-bit campaign trace identifier. It is minted once at
// campaign submission, propagated through the cluster wire protocol,
// and stamps every exported timeline so traces from different runs (or
// different campaigns on the same fleet) never get conflated. The zero
// TraceID means "tracing off". TraceIDs are identification, not
// configuration: they are excluded from the campaign identity hash
// (DESIGN.md invariant 15).
type TraceID [16]byte

// NewTraceID mints a random trace ID.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err != nil {
		// crypto/rand does not fail on supported platforms; degrading to
		// the zero ID (tracing off) beats aborting a campaign over it.
		return TraceID{}
	}
	return id
}

// IsZero reports whether the ID is the zero "tracing off" value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID decodes the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 2*len(id) {
		return TraceID{}, fmt.Errorf("trace id must be %d hex digits, got %d", 2*len(id), len(s))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("trace id: %w", err)
	}
	return id, nil
}

// Span is one completed timed operation in a campaign timeline: a named
// interval with the scope (process/worker) that measured it. Spans are
// value types so recording one never allocates beyond the recorder's
// ring slot.
type Span struct {
	// Scope names the measuring party: "coordinator", a worker ID, or
	// "local" for single-process scans. Timelines group by scope.
	Scope  string        `json:"scope"`
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
}

// End returns the span's end time.
func (s Span) End() time.Time { return s.Start.Add(s.Dur) }

// SpanRecorder is a bounded, concurrency-safe store of completed spans.
// Like the event Tracer it degrades by dropping (newest-first here:
// once full, new spans are counted but not retained, keeping the
// campaign's opening phases — golden prefix, first units — which is
// what timeline analysis needs) rather than growing without bound. A
// nil *SpanRecorder is the disabled state: every method is a no-op and
// Start returns an inert ActiveSpan without reading the clock.
type SpanRecorder struct {
	mu      sync.Mutex
	trace   TraceID
	scope   string
	cap     int
	spans   []Span
	dropped uint64
}

// NewSpanRecorder creates a recorder for the given trace with a default
// scope applied to Record/Start spans (Add keeps the span's own scope).
func NewSpanRecorder(trace TraceID, scope string, capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanRecorder{trace: trace, scope: scope, cap: capacity}
}

// TraceID returns the trace this recorder belongs to (zero on nil).
func (r *SpanRecorder) TraceID() TraceID {
	if r == nil {
		return TraceID{}
	}
	return r.trace
}

// Cap returns the retention capacity (0 on nil).
func (r *SpanRecorder) Cap() int {
	if r == nil {
		return 0
	}
	return r.cap
}

// Record appends one completed span under the recorder's default scope.
func (r *SpanRecorder) Record(name, detail string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.Add(Span{Scope: r.scope, Name: name, Detail: detail, Start: start, Dur: dur})
}

// Add appends a fully-specified span (the span's own Scope is kept; the
// coordinator uses this to merge worker-side spans into the campaign
// timeline).
func (r *SpanRecorder) Add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < r.cap {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Dropped returns how many spans were discarded because the recorder
// was full.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns a copy of the retained spans sorted by start time.
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Drain removes and returns the retained spans in recording order.
// Workers drain their recorder into each submission so span data rides
// the existing result path instead of needing its own endpoint.
func (r *SpanRecorder) Drain() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := r.spans
	r.spans = nil
	r.mu.Unlock()
	return out
}

// ActiveSpan is an in-flight span handle. It is a value type: starting
// and ending a span allocates nothing, and the zero ActiveSpan (what a
// nil recorder's Start returns) makes End a single-branch no-op — the
// same disabled-path contract as the rest of the package.
type ActiveSpan struct {
	rec   *SpanRecorder
	name  string
	start time.Time
}

// Start opens a span. On a nil recorder it returns the inert zero
// ActiveSpan without reading the clock.
func (r *SpanRecorder) Start(name string) ActiveSpan {
	if r == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{rec: r, name: name, start: time.Now()}
}

// Live reports whether the span will be recorded — the guard call sites
// use before building a Detail string, so the formatting cost is only
// paid when tracing is on.
func (s ActiveSpan) Live() bool { return s.rec != nil }

// End completes the span with the given detail. No-op on the zero
// ActiveSpan.
func (s ActiveSpan) End(detail string) {
	if s.rec == nil {
		return
	}
	s.rec.Record(s.name, detail, s.start, time.Since(s.start))
}

// EnableSpans attaches a span recorder for the given trace to the
// registry, replacing any previous one. No-op on a nil registry.
func (r *Registry) EnableSpans(trace TraceID, scope string, capacity int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = NewSpanRecorder(trace, scope, capacity)
	r.mu.Unlock()
}

// SpanRecorder returns the attached recorder, or nil when span tracing
// is off (or the registry is nil) — and a nil SpanRecorder swallows all
// calls, so callers chain freely.
func (r *Registry) SpanRecorder() *SpanRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (the subset Perfetto and chrome://tracing load: complete "X" events
// plus "M" metadata naming processes and threads). Timestamps and
// durations are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes a span timeline as Chrome trace-event JSON:
// one process per campaign, one named thread per scope (coordinator,
// each worker), one complete event per span. Load the output in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, trace TraceID, spans []Span) error {
	// Stable thread numbering: scopes sorted, "coordinator" first so the
	// fleet view always leads with the merge side.
	scopes := make([]string, 0, 4)
	seen := make(map[string]int)
	for _, s := range spans {
		if _, ok := seen[s.Scope]; !ok {
			seen[s.Scope] = 0
			scopes = append(scopes, s.Scope)
		}
	}
	sort.Slice(scopes, func(i, j int) bool {
		if (scopes[i] == "coordinator") != (scopes[j] == "coordinator") {
			return scopes[i] == "coordinator"
		}
		return scopes[i] < scopes[j]
	})
	for i, sc := range scopes {
		seen[sc] = i + 1
	}

	events := make([]chromeEvent, 0, len(spans)+len(scopes)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]string{"name": "faultspace campaign " + trace.String()},
	})
	for _, sc := range scopes {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: seen[sc],
			Args: map[string]string{"name": sc},
		})
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.UnixNano()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  seen[s.Scope],
			Cat:  "faultspace",
		}
		if s.Detail != "" {
			ev.Args = map[string]string{"detail": s.Detail}
		}
		events = append(events, ev)
	}
	doc := struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]string{"traceId": trace.String()},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteSpansJSONL writes spans as one JSON object per line, each
// carrying the trace ID — the streaming-friendly sibling of
// WriteChromeTrace.
func WriteSpansJSONL(w io.Writer, trace TraceID, spans []Span) error {
	type line struct {
		Trace string `json:"trace"`
		Span
	}
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(line{Trace: trace.String(), Span: s}); err != nil {
			return err
		}
	}
	return nil
}
