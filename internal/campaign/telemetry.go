package campaign

import (
	"time"

	"faultspace/internal/machine"
	"faultspace/internal/telemetry"
)

// scanTel bundles the telemetry instruments of one scan run, resolved
// once up front so the per-experiment hot path is a handful of atomic
// adds without registry lookups. With telemetry disabled
// (Config.Telemetry == nil) every instrument is nil and every method
// no-ops without reading the clock — the zero-overhead fast path
// invariant 10 builds on.
type scanTel struct {
	live bool
	// spans is the campaign timeline recorder (nil = span tracing off).
	// Deliberately independent of the instrument registry: a cluster
	// worker can trace spans without keeping a metrics registry, and vice
	// versa. Spans are phase-granular (strategy run, golden prefix),
	// never per experiment, so the hot path stays untouched.
	spans       *telemetry.SpanRecorder
	experiments *telemetry.Counter
	outcomes    [NumOutcomes]*telemetry.Histogram
	// attacks counts attack-flagged outcomes (nil without an objective).
	attacks *telemetry.Counter

	// Memoization counters (nil with memoization off): memoHits counts
	// experiments whose remainder was composed from a cached entry,
	// memoMisses counts cache probes that recorded a mark instead,
	// memoGated counts probes skipped by the admission gate because the
	// remaining cycle budget could not repay the hash cost.
	memoHits   *telemetry.Counter
	memoMisses *telemetry.Counter
	memoGated  *telemetry.Counter
	// predecodeInvals accumulates predecode-cache invalidations across
	// the scan's machines (nil with predecode off). Structurally zero for
	// Harvard-architecture campaign machines — the ROM is fault-immune,
	// so nothing ever dirties the code region — but surfaced so the
	// benchmark report and any von-Neumann embedder can observe it.
	predecodeInvals *telemetry.Counter
}

// newScanTel resolves the scan instruments from the config's registry.
func newScanTel(cfg Config) *scanTel {
	st := &scanTel{spans: cfg.Spans}
	r := cfg.Telemetry
	if r == nil {
		return st
	}
	st.live = true
	st.experiments = r.Counter("scan.experiments")
	for o := 0; o < NumOutcomes; o++ {
		st.outcomes[o] = r.Histogram("scan.outcome." + Outcome(o).MetricName())
	}
	if cfg.Objective != nil {
		st.attacks = r.Counter("scan.attacks")
	}
	if cfg.memoEnabled() {
		st.memoHits = r.Counter("memo.hits")
		st.memoMisses = r.Counter("memo.misses")
		st.memoGated = r.Counter("memo.gated")
	}
	if cfg.Predecode {
		st.predecodeInvals = r.Counter("predecode.invalidations")
	}
	return st
}

// addInvalidations folds the predecode invalidation counts of the
// scan's machines into the counter. Called once at scan teardown, before
// pooled machines are released; fresh campaign machines start at zero,
// so the sum is the scan's own count.
func (st *scanTel) addInvalidations(ms []*machine.Machine) {
	if st == nil || st.predecodeInvals == nil {
		return
	}
	var n uint64
	for _, m := range ms {
		n += m.PredecodeInvalidations()
	}
	st.predecodeInvals.Add(n)
}

// begin stamps the start of one experiment. Disabled telemetry skips
// the clock read entirely and returns the zero time.
func (st *scanTel) begin() time.Time {
	if st == nil || !st.live {
		return time.Time{}
	}
	return time.Now()
}

// experiment accounts one completed experiment and its duration in the
// per-outcome histogram.
func (st *scanTel) experiment(o Outcome, t0 time.Time) {
	if st == nil || !st.live {
		return
	}
	st.experiments.Inc()
	st.outcomes[o.Base()].Observe(time.Since(t0))
	if o.Attack() && st.attacks != nil {
		st.attacks.Inc()
	}
}
