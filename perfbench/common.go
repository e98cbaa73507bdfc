package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"faultspace"
	"faultspace/internal/progs"
)

// kernels are the registry benchmarks every workload draws from (hi is
// too small to matter).
var kernels = []string{"bin_sem2", "sync2", "clock1", "mbox1", "preempt1", "sort1"}

// spaces are the six fault spaces, by their report names.
var spaces = []faultspace.SpaceKind{
	faultspace.SpaceMemory, faultspace.SpaceRegisters, faultspace.SpaceSkip,
	faultspace.SpacePC, faultspace.SpaceBurst2, faultspace.SpaceBurst4,
}

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupRepeats = 7

// variant is one program a workload runs campaigns on.
type variant struct {
	kernel   string
	hardened bool
	sizes    progs.Sizes // zero: registry defaults
	prog     *faultspace.Program
}

// name identifies the variant in reference keys: "sync2", "sync2+sumdmr",
// "sort1@n=7".
func (v *variant) name() string {
	n := v.kernel
	if v.hardened {
		n += "+sumdmr"
	}
	if v.sizes != (progs.Sizes{}) {
		n += "@" + sizeLabel(v.kernel, v.sizes)
	}
	return n
}

// build assembles (and for SUM+DMR, hardens) the variant.
func (v *variant) build(tr *tracer, scope string) error {
	defer tr.start(scope, "progs.build")()
	spec, err := progs.Resolve(v.kernel, v.sizes)
	if err != nil {
		return err
	}
	if v.hardened {
		v.prog, err = spec.Hardened()
	} else {
		v.prog, err = spec.Baseline()
	}
	if err != nil {
		return fmt.Errorf("build %s: %w", v.name(), err)
	}
	return nil
}

// compareVariants are the twelve programs of the paper's comparison: each
// kernel at registry default size, baseline and SUM+DMR.
func compareVariants() []*variant {
	var vs []*variant
	for _, k := range kernels {
		vs = append(vs, &variant{kernel: k}, &variant{kernel: k, hardened: true})
	}
	return vs
}

// buildAll builds every variant.
func buildAll(tr *tracer, vs []*variant) error {
	for _, v := range vs {
		if err := v.build(tr, benchScope); err != nil {
			return err
		}
	}
	return nil
}

// timeSetups runs setup setupRepeats times and returns each duration;
// setup must leave the workload ready to run after every repetition.
func timeSetups(setup func() error) ([]float64, error) {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// seeded returns the generator for one purpose of a run: the workload
// seed and a purpose number together fix the stream.
func seeded(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + purpose))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// memDelta measures allocation and GC pause across a traced phase.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.start)
	return m
}

// end returns MB allocated and GC pause ms since start.
func (m *memDelta) end() (allocMB, pauseMS float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.TotalAlloc-m.start.TotalAlloc) / (1 << 20), float64(now.PauseTotalNs-m.start.PauseTotalNs) / 1e6
}

// tally counts attempted and failed operations; a failure is printed
// with its reason so a wrong report is never silent.
type tally struct {
	attempted, failed int
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// phaseStats is what one measured phase of a scan workload counted.
type phaseStats struct {
	tally
	passes      int
	campaigns   int
	experiments int
	elapsed     time.Duration
	latencies   []float64 // ms per latency sample, call to verified result
	passMS      []float64 // ms per pass
	passRates   []float64 // experiments per second of each pass
}

func (p *phaseStats) rate() float64 { return float64(p.experiments) / p.elapsed.Seconds() }

// fill sets the end-to-end metrics of an untraced phase.
func (p *phaseStats) fill(out *outcome) {
	out.attempted, out.failed = p.attempted, p.failed
	out.values["experiments_per_s"] = p.rate()
	out.samples["experiments_per_s"] = p.passes
	out.values["campaigns_per_s"] = float64(p.campaigns) / p.elapsed.Seconds()
	out.samples["campaigns_per_s"] = p.campaigns
	out.values["fresh_p50_ms"] = percentile(p.latencies, 50)
	out.values["fresh_p90_ms"] = percentile(p.latencies, 90)
	out.samples["fresh_p50_ms"] = len(p.latencies)
	out.samples["fresh_p90_ms"] = len(p.latencies)
	if rss, err := peakRSSMB(); err == nil {
		out.values["peak_rss_mb"] = rss
	}
	if q1, q2, q3, ok := quartiles(p.passRates); ok {
		out.notes = append(out.notes, fmt.Sprintf("experiments/s per pass quartiles: %.0f / %.0f / %.0f over %d passes", q1, q2, q3, len(p.passRates)))
	}
	if q1, q2, q3, ok := quartiles(p.latencies); ok {
		out.notes = append(out.notes, fmt.Sprintf("fresh latency quartiles: %.2f / %.2f / %.2f ms over %d samples in %d passes", q1, q2, q3, len(p.latencies), p.passes))
	}
}

// passLoop runs whole passes until budget has elapsed, so every phase
// measures complete passes with the same mix of campaigns; firstPass
// numbers the passes, so a traced phase does not repeat the untraced
// phase's orders.
func passLoop(tr *tracer, budget time.Duration, firstPass int, pass func(*tracer, int, *phaseStats)) *phaseStats {
	ps := &phaseStats{}
	t0 := time.Now()
	for n := firstPass; ps.passes == 0 || time.Since(t0) < budget; n++ {
		end := tr.start(benchScope, "bench.pass")
		p0, e0 := time.Now(), ps.experiments
		pass(tr, n, ps)
		end()
		ps.passes++
		d := time.Since(p0)
		ps.passMS = append(ps.passMS, float64(d.Microseconds())/1e3)
		ps.passRates = append(ps.passRates, float64(ps.experiments-e0)/d.Seconds())
	}
	ps.elapsed = time.Since(t0)
	return ps
}
