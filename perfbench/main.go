// Command perfbench is the repository's benchmark: it runs the paper's
// baseline-versus-SUM+DMR comparison as full scans (compare-scan) and as
// raw-space sampling (sample-compare), plus a two-client campaign-service
// mix (service-mix), checks every report against recorded digests, and
// prints end-to-end metrics (untraced) or per-layer metrics (--trace 1).
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// endToEnd and perLayer list every metric the result line carries, with
// its unit: the end-to-end ones from untraced runs, the per-layer ones
// from traced runs. BENCHMARK.json declares the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"experiments_per_s", "1/s"},
	{"campaigns_per_s", "1/s"},
	{"fresh_p50_ms", "ms"},
	{"fresh_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"progs.build_ms", "ms"},
	{"trace.golden_ms", "ms"},
	{"trace.cycles_per_us", "cycles/us"},
	{"pruning.build_ms", "ms"},
	{"pruning.classes", "count"},
	{"campaign.scan_ms.baseline", "ms"},
	{"campaign.scan_ms.hardened", "ms"},
	{"campaign.us_per_experiment", "us"},
	{"campaign.sample_ms", "ms"},
	{"campaign.sample_useful_ratio", "ratio"},
	{"scan.experiments", "count"},
	{"pool.reuse", "count"},
	{"pool.alloc", "count"},
	{"ladder.rung_restores", "count"},
	{"ladder.reconverged", "count"},
	{"ladder.loop_proofs", "count"},
	{"fork.children", "count"},
	{"fork.prefix_cycles_saved", "count"},
	{"memo.hits", "count"},
	{"memo.misses", "count"},
	{"predecode.invalidations", "count"},
	{"checkpoint.append_ms", "ms"},
	{"checkpoint.close_ms", "ms"},
	{"checkpoint.flushes", "count"},
	{"metrics.analyze_ms", "ms"},
	{"archive.encode_ms", "ms"},
	{"archive.decode_ms", "ms"},
	{"archive.report_bytes", "bytes"},
	{"service.submit_ms", "ms"},
	{"service.queued_ms", "ms"},
	{"service.running_ms", "ms"},
	{"service.report_ms", "ms"},
	{"service.archive_hits", "count"},
	{"service.refused", "count"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p90_ms", "ms"},
	{"cluster.wait_ms", "ms"},
	{"cluster.lease_ms", "ms"},
	{"cluster.submit_ms", "ms"},
	{"cluster.rebuild_ms", "ms"},
	{"cluster.rampup_ms", "ms"},
	{"cluster.useful_lease_ratio", "ratio"},
	{"cluster.wait_share_of_fresh_p50", "ratio"},
	{"cluster.rampup_share_of_fresh_p50", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.unattributed_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int // sample count behind a metric, where it has one
	notes             []string       // extra human-readable lines
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), samples: make(map[string]int)}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	work     string // scratch directory for checkpoints and archives
	refs     *refs
}

var workloads = map[string]func(*config) (*outcome, error){
	"compare-scan":   compareScan,
	"sample-compare": sampleCompare,
	"service-mix":    serviceMix,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "compare-scan, sample-compare or service-mix")
	seed := fl.Int64("seed", 1, "workload seed: campaign order, sizes, sampling seeds and repeats")
	seconds := fl.Float64("seconds", 30, "measured time per run")
	trace := fl.Int("trace", 0, "1: traced run printing per-layer metrics")
	traceOut := fl.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
	record := fl.String("record", "", "recompute every reference digest into this file and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordRefs(*record, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload compare-scan|sample-compare|service-mix, --seconds > 0, --trace 0|1\n")
		return 2
	}
	r, err := loadRefs()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := &config{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		traceOut: *traceOut, work: work, refs: r,
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace-"+*workload+".json")
	}
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := render(cfg, out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// render prints one human-readable line per metric and the result JSON.
func render(cfg *config, out *outcome, w io.Writer) (resultLine, error) {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	line := resultLine{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !cfg.traced {
			return line, fmt.Errorf("workload %s measured no %s", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("workload %s: %s is %v", cfg.workload, d.name, v)
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		n := ""
		if s, ok := out.samples[d.name]; ok {
			n = fmt.Sprintf("  n=%d", s)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s%s\n", d.name, v, d.unit, n)
	}
	failedFrac := 0.0
	if out.attempted > 0 {
		failedFrac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.4f ratio  (%d of %d)\n", "failed_frac", failedFrac, out.failed, out.attempted)
	sort.Strings(out.notes)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return line, err
	}
	fmt.Fprintln(w, string(b))
	return line, nil
}

// phaseBudget splits a run's measured time: an untraced run measures for
// the whole --seconds; a traced run first measures untraced for half of
// it (the reference for bench.trace_overhead_frac), then traced.
func phaseBudget(cfg *config) time.Duration {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		d /= 2
	}
	return d
}

// overhead is the traced throughput's shortfall against the untraced one.
func overhead(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 1 - traced/untraced
}
