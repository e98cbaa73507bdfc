package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// Options parameterizes a Coordinator.
type Options struct {
	// UnitSize is the number of equivalence classes per work unit
	// (default DefaultUnitSize). Units are contiguous injection-ordered
	// class-index ranges, so a snapshot-strategy worker replays each
	// unit's golden prefix once.
	UnitSize int
	// LeaseTTL is how long a leased unit may go without a heartbeat or
	// submission before it is reassigned (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxGoldenCycles is shipped to workers so their golden replay bound
	// matches the coordinator's.
	MaxGoldenCycles uint64
	// OnResult receives every freshly merged outcome — the checkpoint
	// writer hook. Calls are serialized under the coordinator lock, so a
	// checkpoint.Writer needs no extra locking.
	OnResult func(class int, o campaign.Outcome)
	// OnProgress receives cluster progress events: one initial, throttled
	// intermediate ones, one final.
	OnProgress func(Progress)
	// ProgressInterval throttles intermediate progress events (default
	// 1s; negative = one event per submission).
	ProgressInterval time.Duration
	// Interrupt, when closed, stops the campaign: leases stop being
	// granted, Wait returns the partial result with ErrInterrupted.
	Interrupt <-chan struct{}
	// Telemetry, when non-nil, receives cluster metrics (lease grants and
	// expiries, submissions, duplicate submits, heartbeats and their gap
	// histogram; see DESIGN.md §4d) and enables the /debug/telemetry
	// endpoint on Handler(). Purely observational: it never changes what
	// the coordinator computes.
	Telemetry *telemetry.Registry
	// TraceID overrides the campaign trace ID minted by NewSpec — the
	// service passes a submitted campaign's ID through so the fleet's
	// spans correlate with the submission. Zero keeps the minted one.
	// The trace ID is observability identity only and never feeds the
	// campaign identity hash (invariant 15).
	TraceID telemetry.TraceID
	// SpanCapacity bounds the merged campaign timeline: the
	// coordinator's own spans plus every span workers ship back with
	// submissions (default DefaultTimelineCapacity). Beyond capacity the
	// newest spans are dropped and the loss is self-described via the
	// recorder's drop counter in /debug/telemetry.
	SpanCapacity int
	// RateWindow is the averaging window for the per-worker
	// experiments-per-second rates in /v1/status (default
	// DefaultRateWindow). Rates cover the last full window, so an idle
	// worker's rate decays to zero instead of being diluted over its
	// whole session.
	RateWindow time.Duration
	// Pprof additionally mounts net/http/pprof under /debug/pprof/ on
	// Handler() — opt-in, for live profiling of a long cluster scan.
	Pprof bool
}

// Defaults for Options.
const (
	DefaultUnitSize = 256
	DefaultLeaseTTL = 10 * time.Second
	// DefaultRateWindow is the /v1/status per-worker rate window.
	DefaultRateWindow = 5 * time.Second
	// DefaultTimelineCapacity is the default span budget for the merged
	// campaign timeline — four times a single recorder's default, since
	// the coordinator aggregates a whole fleet.
	DefaultTimelineCapacity = 4 * telemetry.DefaultSpanCapacity
)

func (o Options) withDefaults() Options {
	if o.UnitSize == 0 {
		o.UnitSize = DefaultUnitSize
	}
	if o.LeaseTTL == 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.ProgressInterval == 0 {
		o.ProgressInterval = time.Second
	}
	if o.RateWindow == 0 {
		o.RateWindow = DefaultRateWindow
	}
	if o.SpanCapacity == 0 {
		o.SpanCapacity = DefaultTimelineCapacity
	}
	return o
}

// WorkerStat is one worker's slice of a cluster Progress event. The
// JSON field names are the /v1/status wire contract.
type WorkerStat struct {
	ID string `json:"id"`
	// Experiments counts entries this worker submitted, including
	// re-executions of reassigned units — the work it actually performed.
	Experiments int `json:"experiments"`
	// Merged counts the outcomes this worker contributed first.
	Merged int `json:"merged"`
	// Rate is the worker's experiments-per-second over the last full
	// Options.RateWindow (the partial current window before the first
	// window completes), so it tracks what the worker is doing now — an
	// idle worker's rate decays to zero within a window instead of being
	// diluted over its whole session.
	Rate float64 `json:"expPerSec"`
	// Outstanding is the number of units the worker currently holds.
	Outstanding int `json:"outstanding"`
}

// Progress is one event of a distributed campaign's progress stream: the
// regular campaign progress plus cluster-level statistics.
type Progress struct {
	campaign.Progress
	// OutstandingLeases is the number of currently leased units.
	OutstandingLeases int
	// Reassignments counts units whose lease expired and were handed to
	// another worker.
	Reassignments int
	// Workers holds per-worker statistics, sorted by ID.
	Workers []WorkerStat
	// Stragglers holds the watchdog's current verdicts (watchdog.go),
	// sorted by worker ID then kind.
	Stragglers []Straggler
}

type unitState uint8

const (
	unitPending unitState = iota
	unitLeased
	unitDone
)

type unit struct {
	id       uint64
	classes  []int
	state    unitState
	token    uint64
	owner    string
	deadline time.Time
	// grantedAt is when the current lease was granted; it anchors the
	// unit.lease span and the watchdog's lease-age check.
	grantedAt time.Time
}

type workerInfo struct {
	id          string
	experiments int
	merged      int
	outstanding int
	joined      time.Time
	left        bool
	// lastHeartbeat feeds the cluster.heartbeat_gap histogram: the time
	// between a worker's consecutive heartbeats. Zero until the first one.
	lastHeartbeat time.Time
	// lastSeen is the last contact of any kind (lease, submit, heartbeat,
	// leave) — the watchdog's silent-heartbeat anchor.
	lastSeen time.Time
	// Windowed-rate state: experiments counted up to winStart, and the
	// rate of the last completed window (valid once hasRate is set).
	winStart time.Time
	winExp   int
	rate     float64
	hasRate  bool
}

// Coordinator shards a campaign into leased work units and merges the
// outcomes workers stream back. It is an http.Handler; all state is
// guarded by one mutex, which also serializes the OnResult checkpoint
// hook.
type Coordinator struct {
	target   campaign.Target
	golden   *trace.Golden
	space    *pruning.FaultSpace
	identity [32]byte
	spec     []byte // encoded handshake frame
	opts     Options

	mu          sync.Mutex
	units       []*unit
	pending     []*unit // LIFO of grantable units
	leased      int
	outcomes    []campaign.Outcome
	have        []bool
	counts      [campaign.NumOutcomes]uint64
	attacks     uint64
	remaining   int
	session     int
	start       time.Time
	lastEmit    time.Time
	reassigned  int
	workers     map[string]*workerInfo
	nextToken   uint64
	interrupted bool
	sealed      bool
	finished    chan struct{}

	// Fleet timeline: the campaign trace ID from the spec and the merged
	// span recorder (the coordinator's own spans plus the spans workers
	// ship back with submissions), served at /v1/trace. rampedUp latches
	// the one-shot campaign.rampup span covering campaign start to the
	// first lease grant — the time-to-first-work a fleet operator cares
	// about, and otherwise a dark region at the head of every timeline.
	traceID  telemetry.TraceID
	spans    *telemetry.SpanRecorder
	rampedUp bool

	// Watchdog state (watchdog.go): a ring window of completed lease
	// durations and the already-flagged verdict keys (one trace event per
	// distinct condition).
	leaseDurs    []time.Duration
	leaseDurNext int
	flagged      map[string]bool

	// Telemetry instruments, resolved once in NewCoordinator; all nil
	// (no-op) when Options.Telemetry is nil.
	telGranted    *telemetry.Counter
	telExpired    *telemetry.Counter
	telSubmits    *telemetry.Counter
	telDuplicates *telemetry.Counter
	telHeartbeats *telemetry.Counter
	telWorkers    *telemetry.Gauge
	telGap        *telemetry.Histogram
	telLeaseDur   *telemetry.Histogram
	telStragglers *telemetry.Gauge
}

// NewCoordinator builds a coordinator for the campaign. prior holds
// checkpoint-restored outcomes by class index; only the remaining classes
// are sharded into work units, so a resumed distributed campaign redoes
// no work. cfg supplies the outcome-relevant campaign parameters (the
// timeout budget) that are hashed into the identity and shipped to
// workers.
func NewCoordinator(t campaign.Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg campaign.Config, opts Options, prior map[int]campaign.Outcome) (*Coordinator, error) {
	opts = opts.withDefaults()
	if opts.MaxGoldenCycles == 0 {
		return nil, fmt.Errorf("cluster: MaxGoldenCycles must be set")
	}
	id, err := t.CampaignIdentity(fs.Kind, cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: identity: %w", err)
	}
	c := &Coordinator{
		target:   t,
		golden:   golden,
		space:    fs,
		identity: id,
		opts:     opts,
		outcomes: make([]campaign.Outcome, len(fs.Classes)),
		have:     make([]bool, len(fs.Classes)),
		workers:  make(map[string]*workerInfo),
		flagged:  make(map[string]bool),
		start:    time.Now(),
		finished: make(chan struct{}),
	}
	reg := opts.Telemetry
	c.telGranted = reg.Counter("cluster.leases_granted")
	c.telExpired = reg.Counter("cluster.leases_expired")
	c.telSubmits = reg.Counter("cluster.submissions")
	c.telDuplicates = reg.Counter("cluster.duplicate_submits")
	c.telHeartbeats = reg.Counter("cluster.heartbeats")
	c.telWorkers = reg.Gauge("cluster.active_workers")
	c.telGap = reg.Histogram("cluster.heartbeat_gap")
	c.telLeaseDur = reg.Histogram("cluster.lease_duration")
	c.telStragglers = reg.Gauge("fleet.stragglers")
	spec, err := NewSpec(t, fs.Kind, cfg, opts.MaxGoldenCycles, uint64(len(fs.Classes)))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	spec.LeaseTTL = opts.LeaseTTL
	// Wire the fleet timeline. A registry with span tracing enabled (the
	// favscan -trace serve path) contributes its recorder so local and
	// fleet spans merge into one timeline under the registry's trace ID;
	// otherwise the coordinator records into its own recorder under the
	// spec's ID (Options.TraceID when a service passed one through).
	if rec := reg.SpanRecorder(); rec != nil {
		c.spans = rec
		spec.TraceID = rec.TraceID()
	} else {
		if !opts.TraceID.IsZero() {
			spec.TraceID = opts.TraceID
		}
		c.spans = telemetry.NewSpanRecorder(spec.TraceID, "coordinator", opts.SpanCapacity)
	}
	c.traceID = spec.TraceID
	c.spec = EncodeSpec(spec)

	for ci, o := range prior {
		if ci < 0 || ci >= len(fs.Classes) {
			return nil, fmt.Errorf("cluster: prior class index %d outside [0, %d)", ci, len(fs.Classes))
		}
		if !o.Known() {
			return nil, fmt.Errorf("cluster: prior class %d has unknown outcome %d", ci, o)
		}
		c.outcomes[ci] = o
		c.have[ci] = true
		c.counts[o.Base()]++
		if o.Attack() {
			c.attacks++
		}
	}
	c.remaining = len(fs.Classes) - len(prior)

	var todo []int
	for i := range fs.Classes {
		if !c.have[i] {
			todo = append(todo, i)
		}
	}
	// Carve units in injection order: class indices are (Slot, Bit)-sorted
	// by construction, and this stable sort turns that into an explicit
	// contract of the carving rather than an accident of the pruning
	// layer — a snapshot-strategy worker feeds each leased unit in slot
	// order from one golden replay that stops at the unit's last slot.
	sort.SliceStable(todo, func(i, j int) bool {
		return fs.Classes[todo[i]].Slot() < fs.Classes[todo[j]].Slot()
	})
	for len(todo) > 0 {
		n := opts.UnitSize
		if n > len(todo) {
			n = len(todo)
		}
		u := &unit{id: uint64(len(c.units)), classes: todo[:n]}
		c.units = append(c.units, u)
		todo = todo[n:]
	}
	// Grant units in class order: pending is popped from the tail.
	for i := len(c.units) - 1; i >= 0; i-- {
		c.pending = append(c.pending, c.units[i])
	}
	if c.remaining == 0 {
		c.finishLocked()
	}
	c.mu.Lock()
	c.emitLocked(false)
	c.mu.Unlock()
	return c, nil
}

// Identity returns the campaign identity hash the coordinator admits.
func (c *Coordinator) Identity() [32]byte { return c.identity }

// TraceID returns the campaign's trace ID (shipped to workers in the
// handshake spec).
func (c *Coordinator) TraceID() telemetry.TraceID { return c.traceID }

// Timeline returns the merged fleet span timeline so far (sorted by
// start time) and how many spans were dropped at capacity.
func (c *Coordinator) Timeline() ([]telemetry.Span, uint64) {
	return c.spans.Spans(), c.spans.Dropped()
}

// finishLocked closes the finished channel exactly once, recording the
// campaign root span the first time. (Safe without the lock in
// NewCoordinator, before the coordinator is shared.)
func (c *Coordinator) finishLocked() {
	select {
	case <-c.finished:
	default:
		c.spans.Add(telemetry.Span{
			Scope:  "coordinator",
			Name:   "campaign",
			Detail: c.target.Name + " " + c.space.Kind.String(),
			Start:  c.start,
			Dur:    time.Since(c.start),
		})
		close(c.finished)
	}
}

// Handler returns the coordinator's HTTP handler. With
// Options.Telemetry set it additionally serves /debug/telemetry (the
// live instrument snapshot plus retained trace events as JSON), and
// with Options.Pprof the standard net/http/pprof endpoints under
// /debug/pprof/ — both are observability side doors and never touch
// campaign state.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/handshake", c.handleHandshake)
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/submit", c.handleSubmit)
	mux.HandleFunc("/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/leave", c.handleLeave)
	mux.HandleFunc("/v1/status", c.handleStatus)
	mux.HandleFunc("/v1/trace", c.handleTrace)
	mux.HandleFunc("/metrics", c.handleMetrics)
	if c.opts.Telemetry != nil {
		mux.HandleFunc("/debug/telemetry", c.handleTelemetry)
	}
	if c.opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Wait blocks until every class has an outcome (returning the complete
// result) or Options.Interrupt is closed (returning the partial result
// with campaign.ErrInterrupted). Late in-flight submissions keep merging
// — and reaching OnResult — until Seal is called.
func (c *Coordinator) Wait() (*campaign.Result, error) {
	var interrupt <-chan struct{} = c.opts.Interrupt
	select {
	case <-c.finished:
		c.mu.Lock()
		c.emitLocked(true)
		res := c.resultLocked()
		c.mu.Unlock()
		return res, nil
	case <-interrupt:
		c.mu.Lock()
		c.interrupted = true
		c.emitLocked(true)
		res := c.resultLocked()
		c.mu.Unlock()
		return res, campaign.ErrInterrupted
	}
}

// Seal stops result merging: subsequent submissions are rejected with
// 503 and OnResult will not be invoked again. Call it after the HTTP
// server has shut down (or before closing a checkpoint writer) so no
// handler can race a closed writer.
func (c *Coordinator) Seal() {
	c.mu.Lock()
	c.sealed = true
	c.mu.Unlock()
}

// Drained reports whether every worker that ever joined has left again.
func (c *Coordinator) Drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if !w.left {
			return false
		}
	}
	return true
}

// Snapshot returns the current progress (also served at /v1/status).
func (c *Coordinator) Snapshot() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.progressLocked(false)
}

func (c *Coordinator) resultLocked() *campaign.Result {
	return &campaign.Result{
		Target:   c.target,
		Golden:   c.golden,
		Space:    c.space,
		Outcomes: append([]campaign.Outcome(nil), c.outcomes...),
		Identity: c.identity,
	}
}

// --- HTTP handlers -------------------------------------------------------

// maxBody bounds request bodies; submissions are the largest legitimate
// message (a few bytes per class).
const maxBody = 16 << 20

// Connection timeouts of every HTTP server the project runs (see
// NewServer). ReadHeaderTimeout bounds how long a client may take to
// send its request line and headers, so a slow-loris connection that
// trickles a partial request cannot pin a server goroutine forever;
// IdleTimeout closes keep-alive connections idle between requests.
// There is deliberately no ReadTimeout: bodies are bounded by maxBody,
// and a large submission on a slow link must not be cut off.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewServer returns an HTTP server for h with the connection timeouts
// above. The coordinator, the campaign service and favscan's /metrics
// endpoint all serve through it.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// RequireMethod enforces the single allowed method of an endpoint,
// answering anything else with 405 and an Allow header per RFC 9110.
// Shared with the campaign service's endpoints (internal/service).
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		http.Error(w, "cluster: "+method+" required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if !RequireMethod(w, r, http.MethodPost) {
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		http.Error(w, "cluster: read: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(body) > maxBody {
		http.Error(w, "cluster: request too large", http.StatusBadRequest)
		return nil, false
	}
	return body, true
}

// admit enforces the campaign identity admission check shared by every
// post-handshake endpoint.
func (c *Coordinator) admit(w http.ResponseWriter, id [32]byte) bool {
	if id != c.identity {
		http.Error(w, "cluster: campaign identity mismatch (different program image, fault-space kind or timeout budget)",
			http.StatusConflict)
		return false
	}
	return true
}

func (c *Coordinator) handleHandshake(w http.ResponseWriter, r *http.Request) {
	if _, ok := readBody(w, r); !ok {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(c.spec)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	q, err := DecodeLeaseRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !c.admit(w, q.Identity) {
		return
	}

	c.mu.Lock()
	c.touchLocked(q.WorkerID)
	resp := WorkUnit{Status: UnitWait}
	switch {
	case c.interrupted || c.sealed:
		resp.Status = UnitShutdown
	case c.remaining == 0:
		resp.Status = UnitDone
	default:
		if len(c.pending) == 0 {
			c.reclaimExpiredLocked()
		}
		if n := len(c.pending); n > 0 {
			u := c.pending[n-1]
			c.pending = c.pending[:n-1]
			c.nextToken++
			u.state = unitLeased
			u.token = c.nextToken
			u.owner = q.WorkerID
			u.grantedAt = time.Now()
			u.deadline = u.grantedAt.Add(c.opts.LeaseTTL)
			c.leased++
			c.workers[q.WorkerID].outstanding++
			resp = WorkUnit{Status: UnitGranted, ID: u.id, Token: u.token, Classes: u.classes}
			if !c.rampedUp {
				c.rampedUp = true
				c.spans.Add(telemetry.Span{
					Scope:  "coordinator",
					Name:   "campaign.rampup",
					Detail: "campaign start to first lease grant",
					Start:  c.start,
					Dur:    u.grantedAt.Sub(c.start),
				})
			}
			c.telGranted.Inc()
			c.opts.Telemetry.Tracef("lease.granted", "unit %d (%d classes) to %s", u.id, len(u.classes), q.WorkerID)
		}
	}
	c.mu.Unlock()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(EncodeWorkUnit(resp))
}

// reclaimExpiredLocked returns expired leases to the pending pool.
func (c *Coordinator) reclaimExpiredLocked() {
	now := time.Now()
	for _, u := range c.units {
		if u.state == unitLeased && now.After(u.deadline) {
			u.state = unitPending
			c.leased--
			if wi := c.workers[u.owner]; wi != nil && wi.outstanding > 0 {
				wi.outstanding--
			}
			c.telExpired.Inc()
			c.opts.Telemetry.Tracef("lease.expired", "unit %d reclaimed from %s", u.id, u.owner)
			u.owner = ""
			c.pending = append(c.pending, u)
			c.reassigned++
		}
	}
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	s, err := DecodeSubmission(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !c.admit(w, s.Identity) {
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sealed {
		http.Error(w, "cluster: coordinator sealed", http.StatusServiceUnavailable)
		return
	}
	if s.UnitID >= uint64(len(c.units)) {
		http.Error(w, fmt.Sprintf("cluster: unknown unit %d", s.UnitID), http.StatusBadRequest)
		return
	}
	u := c.units[s.UnitID]
	member := make(map[int]bool, len(u.classes))
	for _, ci := range u.classes {
		member[ci] = true
	}
	for _, e := range s.Entries {
		if !member[e.Class] {
			http.Error(w, fmt.Sprintf("cluster: class %d not part of unit %d", e.Class, s.UnitID), http.StatusBadRequest)
			return
		}
		if !campaign.Outcome(e.Outcome).Known() {
			http.Error(w, fmt.Sprintf("cluster: unknown outcome %d", e.Outcome), http.StatusBadRequest)
			return
		}
	}

	wi := c.touchLocked(s.WorkerID)
	wi.experiments += len(s.Entries)
	c.telSubmits.Inc()
	// Merge the worker's spans into the fleet timeline. The scope is
	// stamped from the authenticated-by-admission worker ID, never taken
	// from the wire, so a worker cannot attribute spans to another.
	for _, sp := range s.Spans {
		sp.Scope = s.WorkerID
		c.spans.Add(sp)
	}
	// Idempotent merge: outcomes are deterministic, so the first record
	// for a class is as good as any duplicate — including submissions
	// under a stale lease token after a reassignment.
	for _, e := range s.Entries {
		if c.have[e.Class] {
			c.telDuplicates.Inc()
			continue
		}
		o := campaign.Outcome(e.Outcome)
		c.have[e.Class] = true
		c.outcomes[e.Class] = o
		c.counts[o.Base()]++
		if o.Attack() {
			c.attacks++
		}
		c.remaining--
		c.session++
		wi.merged++
		if c.opts.OnResult != nil {
			c.opts.OnResult(e.Class, o)
		}
	}
	if len(s.Entries) == len(u.classes) && u.state != unitDone {
		if u.state == unitLeased {
			c.leased--
			if owner := c.workers[u.owner]; owner != nil && owner.outstanding > 0 {
				owner.outstanding--
			}
			// Close out the lease: grant → full merge is the coordinator's
			// view of the unit's life, feeding both the timeline and the
			// watchdog's outlier baseline.
			if !u.grantedAt.IsZero() {
				d := time.Since(u.grantedAt)
				c.spans.Add(telemetry.Span{
					Scope:  "coordinator",
					Name:   "unit.lease",
					Detail: fmt.Sprintf("unit %d (%d classes) by %s", u.id, len(u.classes), u.owner),
					Start:  u.grantedAt,
					Dur:    d,
				})
				c.recordLeaseDurationLocked(d)
				c.telLeaseDur.Observe(d)
			}
		} else {
			// The unit's lease had already expired and it went back to the
			// pending pool; drop it from there so nobody re-runs it.
			for i, p := range c.pending {
				if p == u {
					c.pending = append(c.pending[:i], c.pending[i+1:]...)
					break
				}
			}
		}
		u.state = unitDone
		u.owner = ""
	}
	if c.opts.OnProgress != nil &&
		(c.opts.ProgressInterval < 0 || time.Since(c.lastEmit) >= c.opts.ProgressInterval) {
		c.emitLocked(false)
	}
	if c.remaining == 0 {
		c.finishLocked()
	}
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	h, err := DecodeHeartbeat(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !c.admit(w, h.Identity) {
		return
	}
	c.mu.Lock()
	wi := c.touchLocked(h.WorkerID)
	c.telHeartbeats.Inc()
	now := time.Now()
	if !wi.lastHeartbeat.IsZero() {
		c.telGap.Observe(now.Sub(wi.lastHeartbeat))
	}
	wi.lastHeartbeat = now
	for _, id := range h.Units {
		if id < uint64(len(c.units)) {
			u := c.units[id]
			if u.state == unitLeased && u.owner == h.WorkerID {
				u.deadline = now.Add(c.opts.LeaseTTL)
			}
		}
	}
	c.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	q, err := DecodeLeaseRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !c.admit(w, q.Identity) {
		return
	}
	c.mu.Lock()
	if wi := c.workers[q.WorkerID]; wi != nil {
		if !wi.left {
			c.telWorkers.Add(-1)
			c.opts.Telemetry.Tracef("worker.left", "%s", q.WorkerID)
		}
		wi.left = true
		// Return whatever the worker still holds without waiting for the
		// lease to expire; a voluntary return is not a reassignment.
		for _, u := range c.units {
			if u.state == unitLeased && u.owner == q.WorkerID {
				u.state = unitPending
				u.owner = ""
				c.leased--
				c.pending = append(c.pending, u)
			}
		}
		wi.outstanding = 0
	}
	c.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	p := c.Snapshot()
	resp := struct {
		Name     string `json:"name"`
		Space    string `json:"space"`
		Done     int    `json:"done"`
		Total    int    `json:"total"`
		Failures uint64 `json:"failures"`
		// Attacks counts classes whose outcome satisfied the campaign's
		// attacker objective (0 without one).
		Attacks       uint64  `json:"attacks"`
		Rate          float64 `json:"expPerSec"`
		Leases        int     `json:"outstandingLeases"`
		Reassignments int     `json:"reassignments"`
		// Workers carries each worker's session statistics, including its
		// windowed experiments-per-second rate.
		Workers []WorkerStat `json:"workers"`
		// Stragglers holds the watchdog's current verdicts (empty when the
		// fleet looks healthy).
		Stragglers []Straggler `json:"stragglers,omitempty"`
		// Telemetry is the coordinator's live instrument snapshot; absent
		// when the coordinator runs without a registry.
		Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	}{
		Name: c.target.Name, Space: c.space.Kind.String(),
		Done: p.Done, Total: p.Total, Failures: p.Failures(),
		Attacks: p.Attacks,
		Rate:    p.Rate, Leases: p.OutstandingLeases,
		Reassignments: p.Reassignments, Workers: p.Workers,
		Stragglers: p.Stragglers,
	}
	if c.opts.Telemetry != nil {
		snap := c.opts.Telemetry.Snapshot()
		resp.Telemetry = &snap
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleTelemetry serves the full registry snapshot plus the retained
// trace events — the /debug/telemetry endpoint (only mounted when a
// registry is configured).
func (c *Coordinator) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	reg := c.opts.Telemetry
	resp := struct {
		Telemetry      telemetry.Snapshot `json:"telemetry"`
		Events         []telemetry.Event  `json:"events,omitempty"`
		EventsDropped  uint64             `json:"events_dropped,omitempty"`
		EventsCapacity int                `json:"events_capacity,omitempty"`
		TraceID        string             `json:"trace_id,omitempty"`
		Spans          int                `json:"spans,omitempty"`
		SpansDropped   uint64             `json:"spans_dropped,omitempty"`
		SpansCapacity  int                `json:"spans_capacity,omitempty"`
	}{Telemetry: reg.Snapshot()}
	if tr := reg.Tracer(); tr != nil {
		resp.Events = tr.Events()
		resp.EventsDropped = tr.Dropped()
		resp.EventsCapacity = tr.Cap()
	}
	if !c.traceID.IsZero() {
		resp.TraceID = c.traceID.String()
		resp.Spans = len(c.spans.Spans())
		resp.SpansDropped = c.spans.Dropped()
		resp.SpansCapacity = c.spans.Cap()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleTrace serves the merged fleet span timeline: Chrome trace-event
// JSON by default (loadable in Perfetto / chrome://tracing), one JSON
// object per span with ?format=jsonl.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	if c.traceID.IsZero() {
		http.Error(w, "cluster: span tracing disabled for this campaign", http.StatusNotFound)
		return
	}
	spans, _ := c.Timeline()
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		telemetry.WriteSpansJSONL(w, c.traceID, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteChromeTrace(w, c.traceID, spans)
}

// handleMetrics serves the Prometheus text exposition: the registry's
// instruments (when one is configured) plus synthetic per-worker series
// labelled by worker ID, derived from the same statistics /v1/status
// reports.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	p := c.Snapshot()
	sets := make([]telemetry.MetricSet, 0, 1+len(p.Workers))
	if c.opts.Telemetry != nil {
		sets = append(sets, telemetry.MetricSet{Snap: c.opts.Telemetry.Snapshot()})
	}
	for _, ws := range p.Workers {
		snap := telemetry.Snapshot{
			Counters: map[string]uint64{
				"cluster.worker.experiments": uint64(ws.Experiments),
				"cluster.worker.merged":      uint64(ws.Merged),
			},
			Gauges: map[string]int64{
				"cluster.worker.outstanding": int64(ws.Outstanding),
			},
		}
		sets = append(sets, telemetry.MetricSet{
			Labels: map[string]string{"worker": ws.ID},
			Snap:   snap,
		})
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheusSets(w, sets)
}

// --- progress ------------------------------------------------------------

func (c *Coordinator) touchLocked(workerID string) *workerInfo {
	wi := c.workers[workerID]
	if wi == nil {
		now := time.Now()
		wi = &workerInfo{id: workerID, joined: now, winStart: now}
		c.workers[workerID] = wi
		c.telWorkers.Add(1)
		c.opts.Telemetry.Tracef("worker.joined", "%s", workerID)
	} else if wi.left {
		// A worker that left and came back counts as active again.
		c.telWorkers.Add(1)
		c.opts.Telemetry.Tracef("worker.joined", "%s (rejoined)", workerID)
	}
	wi.left = false
	wi.lastSeen = time.Now()
	return wi
}

func (c *Coordinator) progressLocked(final bool) Progress {
	p := Progress{
		Progress: campaign.Progress{
			Done:    len(c.space.Classes) - c.remaining,
			Total:   len(c.space.Classes),
			Session: c.session,
			Counts:  c.counts,
			Attacks: c.attacks,
			Elapsed: time.Since(c.start),
			Final:   final,
		},
		OutstandingLeases: c.leased,
		Reassignments:     c.reassigned,
	}
	if p.Elapsed > 0 && c.session > 0 {
		p.Rate = float64(c.session) / p.Elapsed.Seconds()
		if rem := c.remaining; rem > 0 && p.Rate > 0 {
			p.ETA = time.Duration(float64(rem) / p.Rate * float64(time.Second))
		}
	}
	now := time.Now()
	for _, wi := range c.workers {
		ws := WorkerStat{
			ID:          wi.id,
			Experiments: wi.experiments,
			Merged:      wi.merged,
			Outstanding: wi.outstanding,
		}
		// Roll the rate window forward: each elapsed RateWindow becomes the
		// reported rate, so the stat reflects recent throughput. Several
		// windows may have passed since the last progress computation — the
		// experiments since winStart then spread over all of them, and a
		// fully idle stretch decays the rate to zero.
		if d := now.Sub(wi.winStart); d >= c.opts.RateWindow {
			windows := float64(d) / float64(c.opts.RateWindow)
			wi.rate = float64(wi.experiments-wi.winExp) / (windows * c.opts.RateWindow.Seconds())
			wi.hasRate = true
			wi.winStart = now
			wi.winExp = wi.experiments
		}
		if wi.hasRate {
			ws.Rate = wi.rate
		} else if d := now.Sub(wi.winStart); d > 0 && wi.experiments > wi.winExp {
			// Before the first full window: the partial-window rate.
			ws.Rate = float64(wi.experiments-wi.winExp) / d.Seconds()
		}
		p.Workers = append(p.Workers, ws)
	}
	sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].ID < p.Workers[j].ID })
	p.Stragglers = c.stragglersLocked()
	return p
}

func (c *Coordinator) emitLocked(final bool) {
	if c.opts.OnProgress == nil {
		return
	}
	c.lastEmit = time.Now()
	c.opts.OnProgress(c.progressLocked(final))
}
