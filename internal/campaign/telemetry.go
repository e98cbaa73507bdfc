package campaign

import (
	"time"

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

	// Memoization counters (nil under the rerun strategy): memoHits
	// counts experiments whose remainder was composed from a cached
	// entry, memoSaved the cycles those hits skipped, memoMisses cache
	// probes that recorded a mark instead, and memoGated probes skipped
	// by the per-probe break-even cutoff because the remaining cycle
	// budget could not repay the hash cost. memoAdmitted and memoRefused
	// count admission decisions, one per campaign cache that reached the
	// end of its warm-up.
	memoHits     *telemetry.Counter
	memoSaved    *telemetry.Counter
	memoMisses   *telemetry.Counter
	memoGated    *telemetry.Counter
	memoAdmitted *telemetry.Counter
	memoRefused  *telemetry.Counter
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
	if cfg.MemoCache != nil {
		st.memoHits = r.Counter("memo.hits")
		st.memoSaved = r.Counter("memo.saved_cycles")
		st.memoMisses = r.Counter("memo.misses")
		st.memoGated = r.Counter("memo.gated")
		st.memoAdmitted = r.Counter("memo.admitted")
		st.memoRefused = r.Counter("memo.refused")
	}
	return st
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
