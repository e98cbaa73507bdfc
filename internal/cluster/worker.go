package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// Worker sentinel errors.
var (
	// ErrShutdown is returned by Join when the coordinator announced an
	// interrupt-driven shutdown before the campaign completed.
	ErrShutdown = errors.New("cluster: coordinator shut down")
	// ErrRejected is returned when the coordinator rejected the worker —
	// identity mismatch or a protocol violation. Not retryable.
	ErrRejected = errors.New("cluster: rejected by coordinator")
	// ErrUnreachable is returned when the coordinator stayed unreachable
	// through the bounded retry budget.
	ErrUnreachable = errors.New("cluster: coordinator unreachable")
)

// WorkerOptions parameterizes Join.
type WorkerOptions struct {
	// ID names the worker in leases and statistics (default "w<pid>").
	ID string
	// Workers is the number of parallel experiment executors per unit
	// (default GOMAXPROCS, via campaign.Config).
	Workers int
	// Strategy selects the experiment execution strategy (default
	// snapshot). Deliberately free to differ from other workers — the
	// strategy-equivalence invariant guarantees identical outcomes.
	Strategy campaign.Strategy
	// Predecode enables the simulator's pre-decoded dispatch stream on
	// this worker's machines. Outcome-invariant and local to this worker.
	Predecode bool
	// Memo enables cross-experiment outcome memoization. The worker keeps
	// one cache per campaign, shared across all the units it leases — the
	// biggest win of the pool+memo combination, since leased units of the
	// same campaign funnel through many common post-fault states.
	// Outcome-invariant (invariant 11) and local to this worker.
	Memo bool
	// MaxRetries bounds consecutive failed attempts per request before
	// the worker gives up (default 6).
	MaxRetries int
	// BaseBackoff is the initial retry backoff, doubled per attempt up to
	// MaxBackoff (defaults 50ms / 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// PollInterval is the wait between lease polls when every unit is
	// leased out (default 200ms).
	PollInterval time.Duration
	// Interrupt, when closed, makes the worker stop abruptly — mid-unit,
	// without submitting or deregistering, exactly like a crash. The
	// lease-expiry path of the coordinator must absorb it.
	Interrupt <-chan struct{}
	// Telemetry, when non-nil, instruments the worker's campaign engine
	// (scan counters, outcome histograms, machine-pool reuse) across all
	// the units it runs. Session-scoped and local to this worker.
	Telemetry *telemetry.Registry
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Logf, when non-nil, receives worker life-cycle log lines.
	Logf func(format string, args ...any)
	// onUnit is a test hook invoked after each granted lease.
	onUnit func(u WorkUnit)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.ID == "" {
		o.ID = fmt.Sprintf("w%d", os.Getpid())
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 6
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.PollInterval == 0 {
		o.PollInterval = 200 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Join connects to a coordinator, rebuilds the campaign from the
// handshake spec — the worker needs no local program knowledge — and
// pulls, executes and submits work units until the campaign completes.
// It returns nil on completion, ErrShutdown when the coordinator stopped
// early, campaign.ErrInterrupted when Options.Interrupt fired, and a
// permanent error for admission or protocol failures.
func Join(baseURL string, opts WorkerOptions) error {
	opts = opts.withDefaults()
	w := &worker{base: strings.TrimSuffix(baseURL, "/"), opts: opts}

	body, err := w.post("/v1/handshake", nil)
	if err != nil {
		return err
	}
	spec, err := DecodeSpec(body)
	if err != nil {
		return fmt.Errorf("cluster: handshake: %w", err)
	}
	return JoinCampaign(baseURL, spec, opts)
}

// JoinCampaign runs the worker loop for a campaign whose spec was
// obtained out of band — e.g. from the campaign service's fleet
// handshake, which assigns campaigns to workers dynamically. It rebuilds
// the campaign from the spec, verifies the identity hash and then
// leases, executes and submits work units exactly like Join.
func JoinCampaign(baseURL string, spec Spec, opts WorkerOptions) error {
	opts = opts.withDefaults()
	if spec.Proto != ProtoVersion {
		return fmt.Errorf("%w: coordinator speaks protocol %d, this worker %d", ErrRejected, spec.Proto, ProtoVersion)
	}
	w := &worker{base: strings.TrimSuffix(baseURL, "/"), opts: opts}
	if err := w.rebuild(spec); err != nil {
		return err
	}
	opts.Logf("worker %s: joined %s (%s, %d classes, %s space)",
		opts.ID, w.base, spec.Name, len(w.space.Classes), w.space.Kind)
	return w.loop()
}

type worker struct {
	base string
	opts WorkerOptions

	spec   Spec
	target campaign.Target
	golden *trace.Golden
	space  *pruning.FaultSpace
	cfg    campaign.Config

	// spans records this worker's slice of the campaign timeline (nil
	// when the spec carries no trace ID, i.e. tracing off). The recorder
	// is drained into every submission, so spans ride the existing result
	// path to the coordinator instead of needing their own endpoint.
	spans *telemetry.SpanRecorder
	// waitStart anchors the current worker.wait span: set when the first
	// UnitWait answer of an idle stretch arrives, cleared on any other
	// answer.
	waitStart time.Time
}

// rebuild reconstructs the campaign from the handshake spec via
// BuildCampaign — the worker-side half of the admission check — and
// layers this worker's local execution choices (all outcome-invariant)
// on top of the outcome-relevant config the spec pins down.
func (w *worker) rebuild(spec Spec) error {
	// A nonzero trace ID in the spec switches span tracing on: this
	// worker records its slice of the campaign timeline and ships it back
	// with each submission.
	if !spec.TraceID.IsZero() {
		w.spans = telemetry.NewSpanRecorder(spec.TraceID, w.opts.ID, 0)
	}
	sp := w.spans.Start("worker.rebuild")
	t, g, fs, cfg, err := BuildCampaign(spec)
	if err != nil {
		return err
	}
	if sp.Live() {
		sp.End(fmt.Sprintf("%s: golden replay + %d classes", spec.Name, len(fs.Classes)))
	}
	// One pool for the whole campaign: every leased unit is one
	// RunClasses call, and without the pool each of them would
	// re-allocate every worker machine's RAM image.
	pool := campaign.NewMachinePool(t)
	pool.Instrument(w.opts.Telemetry)
	cfg.Workers = w.opts.Workers
	cfg.Strategy = w.opts.Strategy
	cfg.Predecode = w.opts.Predecode
	cfg.Interrupt = w.opts.Interrupt
	cfg.Telemetry = w.opts.Telemetry
	cfg.Spans = w.spans
	cfg.Pool = pool
	if w.opts.Memo {
		// One cache per campaign, like the pool: every leased unit's
		// RunClasses call shares (and grows) the same entries.
		cfg.MemoCache = campaign.NewMemoCache()
	}
	w.target, w.golden, w.space, w.cfg, w.spec = t, g, fs, cfg, spec
	return nil
}

func (w *worker) loop() error {
	leaseReq := EncodeLeaseRequest(LeaseRequest{Identity: w.spec.Identity, WorkerID: w.opts.ID})
	for {
		if w.interrupted() {
			return campaign.ErrInterrupted
		}
		// Span the lease round trip: on a fleet whose units are small, the
		// HTTP protocol overhead is where the wall time goes, and a timeline
		// that leaves it dark would misattribute it to the scans.
		sp := w.spans.Start("worker.lease")
		body, err := w.post("/v1/lease", leaseReq)
		if err != nil {
			return err
		}
		u, err := DecodeWorkUnit(body)
		if err != nil {
			return fmt.Errorf("cluster: lease: %w", err)
		}
		if sp.Live() {
			sp.End("")
		}
		if w.opts.onUnit != nil {
			w.opts.onUnit(u)
		}
		if u.Status == UnitWait {
			if w.spans != nil && w.waitStart.IsZero() {
				w.waitStart = time.Now()
			}
		} else if !w.waitStart.IsZero() {
			// The idle stretch ended — one worker.wait span covers all the
			// consecutive UnitWait polls.
			w.spans.Record("worker.wait", "", w.waitStart, time.Since(w.waitStart))
			w.waitStart = time.Time{}
		}
		switch u.Status {
		case UnitDone:
			w.leave(leaseReq)
			w.opts.Logf("worker %s: campaign complete", w.opts.ID)
			return nil
		case UnitShutdown:
			w.leave(leaseReq)
			return ErrShutdown
		case UnitWait:
			select {
			case <-w.opts.Interrupt:
				return campaign.ErrInterrupted
			case <-time.After(w.opts.PollInterval):
			}
			continue
		}

		for _, ci := range u.Classes {
			if ci >= len(w.space.Classes) {
				return fmt.Errorf("%w: leased class %d outside the fault space", ErrRejected, ci)
			}
		}
		outcomes, err := w.runUnit(u)
		if err != nil {
			if errors.Is(err, campaign.ErrInterrupted) {
				// Die abruptly, as a crashed worker would: the unit's lease
				// expires and the coordinator reassigns it.
				return campaign.ErrInterrupted
			}
			return err
		}
		if err := w.submit(u, outcomes); err != nil {
			return err
		}
		w.opts.Logf("worker %s: unit %d done (%d classes)", w.opts.ID, u.ID, len(u.Classes))
	}
}

// runUnit executes one leased unit through the regular campaign
// machinery, heartbeating the lease while it runs.
func (w *worker) runUnit(u WorkUnit) (map[int]campaign.Outcome, error) {
	stop := make(chan struct{})
	defer close(stop)
	go w.heartbeat(u.ID, stop)
	sp := w.spans.Start("unit.scan")
	outcomes, err := campaign.RunClasses(w.target, w.golden, w.space, w.cfg, u.Classes)
	if err == nil && sp.Live() {
		sp.End(fmt.Sprintf("unit %d (%d classes)", u.ID, len(u.Classes)))
	}
	return outcomes, err
}

// heartbeat extends the lease of a unit every LeaseTTL/3 until stopped.
// Failures are ignored: a missed heartbeat at worst costs a reassignment,
// which the idempotent merge absorbs.
func (w *worker) heartbeat(unitID uint64, stop <-chan struct{}) {
	frame := EncodeHeartbeat(Heartbeat{Identity: w.spec.Identity, WorkerID: w.opts.ID, Units: []uint64{unitID}})
	t := time.NewTicker(w.spec.LeaseTTL / 3)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.postOnce("/v1/heartbeat", frame)
		}
	}
}

func (w *worker) submit(u WorkUnit, outcomes map[int]campaign.Outcome) error {
	entries := make([]checkpoint.Entry, 0, len(outcomes))
	for ci, o := range outcomes {
		entries = append(entries, checkpoint.Entry{Class: ci, Outcome: uint8(o)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Class < entries[j].Class })
	// The worker.submit span ends after the drain below, so it ships with
	// the NEXT submission — each timeline batch trails the round trip that
	// carried the previous one. The final submit span of a campaign is
	// never shipped; the coordinator's unit.lease span covers that tail.
	sp := w.spans.Start("worker.submit")
	_, err := w.post("/v1/submit", EncodeSubmission(Submission{
		Identity: w.spec.Identity,
		WorkerID: w.opts.ID,
		UnitID:   u.ID,
		Token:    u.Token,
		Entries:  entries,
		// Drain the recorder into the submission: spans ride the result
		// path, so the coordinator's timeline grows as work completes with
		// no extra round trips. Nil (and zero wire bytes) when tracing is
		// off.
		Spans: w.spans.Drain(),
	}))
	if err == nil && sp.Live() {
		sp.End(fmt.Sprintf("unit %d", u.ID))
	}
	return err
}

// leave deregisters the worker, best effort.
func (w *worker) leave(leaseReq []byte) {
	w.postOnce("/v1/leave", leaseReq)
}

func (w *worker) interrupted() bool {
	select {
	case <-w.opts.Interrupt:
		return true
	default:
		return false
	}
}

// post issues one POST with bounded retries and exponential backoff.
// Transport errors and 5xx responses are retried; 4xx responses are
// permanent (ErrRejected).
func (w *worker) post(path string, body []byte) ([]byte, error) {
	backoff := w.opts.BaseBackoff
	var lastErr error
	for attempt := 0; attempt < w.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-w.opts.Interrupt:
				return nil, campaign.ErrInterrupted
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > w.opts.MaxBackoff {
				backoff = w.opts.MaxBackoff
			}
		}
		resp, status, err := w.postOnce(path, body)
		switch {
		case err != nil:
			lastErr = err
		case status == http.StatusOK:
			return resp, nil
		case status >= 500:
			lastErr = fmt.Errorf("cluster: %s: HTTP %d: %s", path, status, strings.TrimSpace(string(resp)))
		default:
			return nil, fmt.Errorf("%w: %s: HTTP %d: %s", ErrRejected, path, status, strings.TrimSpace(string(resp)))
		}
		w.opts.Logf("worker %s: %s attempt %d/%d failed: %v", w.opts.ID, path, attempt+1, w.opts.MaxRetries, lastErr)
	}
	return nil, fmt.Errorf("%w: %s after %d attempts: %v", ErrUnreachable, path, w.opts.MaxRetries, lastErr)
}

func (w *worker) postOnce(path string, body []byte) ([]byte, int, error) {
	resp, err := w.opts.Client.Post(w.base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, 0, err
	}
	return data, resp.StatusCode, nil
}
