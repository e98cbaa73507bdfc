// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (see DESIGN.md's experiment index), plus ablation benchmarks for
// the design choices called out there. Each benchmark regenerates its
// artifact from scratch per iteration and reports the key result values as
// custom metrics, so `go test -bench=. -benchmem` doubles as a full
// reproduction run.
package faultspace_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"faultspace"
	"faultspace/internal/asm"
	"faultspace/internal/campaign"
	"faultspace/internal/experiments"
	"faultspace/internal/machine"
	"faultspace/internal/metrics"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// benchSizes keeps the per-iteration cost of the campaign benchmarks
// moderate; favreport uses the full default sizes.
var benchSizes = experiments.Figure2Config{
	BinSemRounds: 2,
	SyncRounds:   2,
	SyncBufBytes: 32,
}

// BenchmarkTable1Poisson regenerates Table I: Poisson probabilities for
// k = 0..5 independent faults per benchmark run.
func BenchmarkTable1Poisson(b *testing.B) {
	var lambda float64
	for i := 0; i < b.N; i++ {
		t1, err := experiments.Table1(5)
		if err != nil {
			b.Fatal(err)
		}
		lambda = t1.Lambda
	}
	b.ReportMetric(lambda*1e13, "lambda-e13")
}

// BenchmarkFigure1Pruning regenerates the Figure 1 def/use pruning example
// (108 raw coordinates collapse to 8 experiments).
func BenchmarkFigure1Pruning(b *testing.B) {
	var experimentsLeft int
	for i := 0; i < b.N; i++ {
		f1, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		experimentsLeft = f1.Experiments
	}
	b.ReportMetric(float64(experimentsLeft), "experiments")
}

// BenchmarkFigure3Dilution regenerates the §IV Gedankenexperiment: both
// dilution cheats, full scans, and the invariant check (coverage inflated,
// failures unchanged).
func BenchmarkFigure3Dilution(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		d, err := experiments.Dilution(4, faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Verify(); err != nil {
			b.Fatal(err)
		}
		gain = d.CmpDFT.CoverageGainWeighted
	}
	b.ReportMetric(gain, "coverage-gain-pp")
}

// BenchmarkFigure2Coverage regenerates Figure 2 panels a/b/d/e: four full
// fault-space scans (bin_sem2/sync2 × baseline/SUM+DMR) with both
// accounting rules.
func BenchmarkFigure2Coverage(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		f2, err := experiments.Figure2(benchSizes, faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = f2.Sync2.Cmp.RatioWeighted
	}
	b.ReportMetric(ratio, "sync2-failure-ratio")
}

// BenchmarkFigure2Runtime regenerates Figure 2g: golden-run runtime and
// memory of all four benchmark variants (no fault injection).
func BenchmarkFigure2Runtime(b *testing.B) {
	specs := []progs.Spec{
		progs.BinSem2(benchSizes.BinSemRounds),
		progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes),
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			for _, build := range []func() (*asm.Program, error){spec.Baseline, spec.Hardened} {
				p, err := build()
				if err != nil {
					b.Fatal(err)
				}
				g, err := trace.Record(p.Name, machine.Config{RAMSize: p.RAMSize},
					p.Code, p.Image, 1<<22)
				if err != nil {
					b.Fatal(err)
				}
				cycles += g.Cycles
			}
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles-per-suite")
}

// BenchmarkSectionIIICPruneStats regenerates the §III-C experiment-
// reduction statistics: raw fault-space size vs conducted experiments.
func BenchmarkSectionIIICPruneStats(b *testing.B) {
	p, err := progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	var reduction float64
	for i := 0; i < b.N; i++ {
		st, err := experiments.PruneStatsFor(p)
		if err != nil {
			b.Fatal(err)
		}
		reduction = st.ReductionFactor
	}
	b.ReportMetric(reduction, "reduction-x")
}

// BenchmarkPitfall2Sampling contrasts the correct raw-space sampler with
// the biased class-uniform sampler of Pitfall 2 on the same budget.
func BenchmarkPitfall2Sampling(b *testing.B) {
	p, err := progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		biased bool
	}{{"raw", false}, {"biased", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := faultspace.Sample(p, faultspace.SampleOptions{
					N:      500,
					Seed:   int64(i + 1),
					Biased: mode.biased,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPitfall3Extrapolation regenerates the §V-C Corollary-2 table:
// extrapolated failure counts with confidence intervals from a sampling
// campaign, checked against the full-scan ground truth.
func BenchmarkPitfall3Extrapolation(b *testing.B) {
	p, err := progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	var estimate float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.Sampling(p, 1000, int64(i+1), faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		estimate = s.Raw.FailEstimate
	}
	b.ReportMetric(estimate, "extrapolated-F")
}

// BenchmarkExtensionRegisterSpace regenerates the §VI-B extension: the
// bin_sem2 pair under the register fault model.
func BenchmarkExtensionRegisterSpace(b *testing.B) {
	spec := progs.BinSem2(benchSizes.BinSemRounds)
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RegisterSpace(spec, faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Registers.RatioWeighted
	}
	b.ReportMetric(ratio, "register-failure-ratio")
}

// BenchmarkExtensionMultiFault regenerates the §III-A extension: the
// 96 single-fault + 4560 double-fault enumeration on one protected word.
func BenchmarkExtensionMultiFault(b *testing.B) {
	var fraction float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.MultiFault(faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fraction = r.FailureFraction()
	}
	b.ReportMetric(100*fraction, "pair-failure-pct")
}

// BenchmarkExtensionMechanisms compares the two implemented hardening
// mechanisms (SUM+DMR vs TMR) on one benchmark pair under the paper's
// metric.
func BenchmarkExtensionMechanisms(b *testing.B) {
	specs := []progs.Spec{progs.BinSem2(benchSizes.BinSemRounds)}
	var tmrRatio float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.Mechanisms(specs, faultspace.ScanOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tmrRatio = m.Rows[0].TMR.RatioWeighted
	}
	b.ReportMetric(tmrRatio, "tmr-failure-ratio")
}

// scanBenchResult is one (benchmark, strategy) timing from
// BenchmarkFullScan, emitted to BENCH_scan.json by TestMain so the scan
// hot path's perf trajectory is tracked from PR to PR.
type scanBenchResult struct {
	Benchmark string `json:"benchmark"`
	Strategy  string `json:"strategy"`
	// Space names the fault-space kind for non-memory variants (the
	// attack-style models have very different class counts and
	// per-experiment costs, so they are tracked as their own rows).
	Space   string  `json:"space,omitempty"`
	Classes int     `json:"classes"`
	NsPerOp float64 `json:"ns_per_op"`
	// Counters holds the run's telemetry counters normalized per scan
	// (experiments, strategy shortcuts, pool reuse), so the perf log also
	// tracks *how* each strategy reached its timing.
	Counters map[string]float64 `json:"counters_per_op,omitempty"`
}

var scanBench struct {
	sync.Mutex
	results []scanBenchResult
}

// TestMain emits BENCH_scan.json after a benchmark run that exercised
// BenchmarkFullScan; plain `go test` runs write nothing, and setting
// BENCH_SKIP_WRITE suppresses the write for smoke runs (`make
// bench-smoke` runs one un-calibrated iteration per strategy — numbers
// that must not clobber the tracked timings).
func TestMain(m *testing.M) {
	code := m.Run()
	scanBench.Lock()
	results := scanBench.results
	scanBench.Unlock()
	if code == 0 && len(results) > 0 && os.Getenv("BENCH_SKIP_WRITE") == "" {
		if data, err := json.MarshalIndent(results, "", "  "); err == nil {
			if err := os.WriteFile("BENCH_scan.json", append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "bench: BENCH_scan.json:", err)
			}
		}
	}
	os.Exit(code)
}

// --- Ablation benchmarks (DESIGN.md §8) ---

// scanBenchSizes are larger than benchSizes on purpose: the executor
// benchmark needs golden traces long enough that per-experiment
// simulation (not channel/classify overhead) dominates, as it does at
// realistic campaign sizes.
var scanBenchSizes = experiments.Figure2Config{
	BinSemRounds: 8,
	SyncRounds:   8,
	SyncBufBytes: 64,
}

// BenchmarkFullScan times the complete full-scan pipeline per execution
// strategy on the two Figure-2 kernels. This is the headline executor
// benchmark: the snapshot strategy must beat rerun by ≥ 2× here (see
// DESIGN.md §8), and its timings feed BENCH_scan.json.
func BenchmarkFullScan(b *testing.B) {
	benches := []struct {
		name string
		spec progs.Spec
	}{
		{"bin_sem2", progs.BinSem2(scanBenchSizes.BinSemRounds)},
		{"sync2", progs.Sync2(scanBenchSizes.SyncRounds, scanBenchSizes.SyncBufBytes)},
	}
	strategies := []struct {
		name      string
		strat     faultspace.Strategy
		predecode bool
		memo      bool
		trace     bool
	}{
		// The plain pair tracks the historical baselines; the +pre and
		// +pre+memo variants quantify the accelerator layers on top. Their
		// memo.hits / memo.misses / predecode.invalidations counters land
		// in BENCH_scan.json alongside the timings they explain. The +trace
		// rows rerun the fully-accelerated configurations with span tracing
		// enabled, so the perf log tracks the cost of an observed scan next
		// to the blind one it must stay within noise of (invariant 15 pins
		// the outputs identical; these rows pin the timing honest).
		{"snapshot", faultspace.StrategySnapshot, false, false, false},
		{"rerun", faultspace.StrategyRerun, false, false, false},
		{"snapshot+pre", faultspace.StrategySnapshot, true, false, false},
		{"snapshot+pre+memo", faultspace.StrategySnapshot, true, true, false},
		{"snapshot+pre+memo+trace", faultspace.StrategySnapshot, true, true, true},
	}
	for _, bench := range benches {
		p, err := bench.spec.Baseline()
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range strategies {
			b.Run(bench.name+"/"+st.name, func(b *testing.B) {
				runFullScanBench(b, p, bench.name, st.name, st.trace, faultspace.ScanOptions{
					Strategy:  st.strat,
					Predecode: st.predecode,
					Memo:      st.memo,
				})
			})
		}
	}

	// Attack-space variants: the instruction-skip, PC-corruption and
	// multi-bit burst models under the recommended accelerated
	// configuration, tracked as their own BENCH_scan.json rows.
	spaces := []struct {
		name  string
		space faultspace.SpaceKind
	}{
		{"skip", faultspace.SpaceSkip},
		{"pc", faultspace.SpacePC},
		{"burst2", faultspace.SpaceBurst2},
		{"burst4", faultspace.SpaceBurst4},
	}
	p, err := benches[0].spec.Baseline()
	if err != nil {
		b.Fatal(err)
	}
	for _, sp := range spaces {
		b.Run(benches[0].name+"/"+sp.name+"/snapshot+pre", func(b *testing.B) {
			runFullScanBench(b, p, benches[0].name, "snapshot+pre", false, faultspace.ScanOptions{
				Space:     sp.space,
				Predecode: true,
			})
		})
	}
}

// runFullScanBench times one scan configuration and records the result
// (with its per-op telemetry counters) for BENCH_scan.json.
func runFullScanBench(b *testing.B, p *faultspace.Program, benchName, stratName string, trace bool, opts faultspace.ScanOptions) {
	// The scans run instrumented: telemetry is designed to be free (see
	// BenchmarkTelemetryOverhead), and its counters land in
	// BENCH_scan.json next to the timing they explain.
	reg := faultspace.NewTelemetry()
	if trace {
		reg.EnableSpans(faultspace.NewTraceID(), "bench", 0)
	}
	opts.Telemetry = reg
	classes := 0
	for i := 0; i < b.N; i++ {
		res, err := faultspace.Scan(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		classes = len(res.Outcomes)
		if trace {
			// Drain per iteration, as a fleet worker does per submission;
			// otherwise the recorder fills and later iterations measure the
			// cheaper drop path instead of span recording.
			reg.SpanRecorder().Drain()
		}
	}
	counters := make(map[string]float64)
	for name, v := range reg.Snapshot().Counters {
		counters[name] = float64(v) / float64(b.N)
	}
	r := scanBenchResult{
		Benchmark: benchName,
		Strategy:  stratName,
		Classes:   classes,
		NsPerOp:   float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		Counters:  counters,
	}
	if opts.Space != 0 && opts.Space != faultspace.SpaceMemory {
		r.Space = opts.Space.String()
	}
	// The framework re-runs each sub-benchmark while calibrating b.N;
	// keep only the final (longest) run.
	scanBench.Lock()
	defer scanBench.Unlock()
	for i := range scanBench.results {
		if scanBench.results[i].Benchmark == r.Benchmark &&
			scanBench.results[i].Strategy == r.Strategy &&
			scanBench.results[i].Space == r.Space {
			scanBench.results = append(scanBench.results[:i], scanBench.results[i+1:]...)
			break
		}
	}
	scanBench.results = append(scanBench.results, r)
}

// BenchmarkAblationSnapshotVsRerun compares the two experiment-execution
// strategies on the same full scan: restoring snapshots taken at the
// injection slot vs re-executing the golden prefix for every experiment.
func BenchmarkAblationSnapshotVsRerun(b *testing.B) {
	p, err := progs.BinSem2(benchSizes.BinSemRounds).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		strat faultspace.Strategy
	}{{"snapshot", faultspace.StrategySnapshot}, {"rerun", faultspace.StrategyRerun}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := faultspace.Scan(p, faultspace.ScanOptions{Strategy: mode.strat}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelScan measures the scan with 1 worker vs
// GOMAXPROCS workers.
func BenchmarkAblationParallelScan(b *testing.B) {
	p, err := progs.BinSem2(benchSizes.BinSemRounds).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := faultspace.Scan(p, faultspace.ScanOptions{Workers: w.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGranularity quantifies the def/use granularity choice:
// per-bit classes (sound: outcomes can differ per bit) vs hypothetical
// per-byte grouping (what several published tools use). It reports both
// class counts; the per-byte variant under-counts experiments by ~8x at
// the cost of conflating distinct outcomes.
func BenchmarkAblationGranularity(b *testing.B) {
	p, err := progs.Sync2(benchSizes.SyncRounds, benchSizes.SyncBufBytes).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	t := faultspace.Target(p)
	golden, fs, err := t.Prepare(1 << 22)
	if err != nil {
		b.Fatal(err)
	}
	var perBit, perByte int
	for i := 0; i < b.N; i++ {
		fs2, err := pruning.Build(golden)
		if err != nil {
			b.Fatal(err)
		}
		perBit = len(fs2.Classes)
		seen := make(map[[2]uint64]struct{}, len(fs2.Classes))
		for _, c := range fs2.Classes {
			seen[[2]uint64{c.UseCycle, c.Bit / 8}] = struct{}{}
		}
		perByte = len(seen)
	}
	_ = fs
	b.ReportMetric(float64(perBit), "classes-per-bit")
	b.ReportMetric(float64(perByte), "classes-per-byte")
}

// BenchmarkClusterScan measures a distributed full scan over loopback
// HTTP with 1, 2 and 4 workers against the same campaign, exposing the
// coordination overhead and the scaling of leased work units (DESIGN.md
// §4b). Compare with BenchmarkAblationParallelScan for the in-process
// parallelism baseline.
func BenchmarkClusterScan(b *testing.B) {
	p, err := progs.BinSem2(benchSizes.BinSemRounds).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []struct {
		name  string
		strat faultspace.Strategy
	}{
		{"snapshot", faultspace.StrategySnapshot},
		{"rerun", faultspace.StrategyRerun},
	} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("strategy=%s/workers=%d", strat.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					addrCh := make(chan string, 1)
					var wg sync.WaitGroup
					wg.Add(workers)
					go func() {
						addr := <-addrCh
						for j := 0; j < workers; j++ {
							go func(j int) {
								defer wg.Done()
								if err := faultspace.JoinScan(addr, faultspace.JoinOptions{
									WorkerID: fmt.Sprintf("w%d", j),
									Strategy: strat.strat,
								}); err != nil {
									b.Error(err)
								}
							}(j)
						}
					}()
					_, err := faultspace.ServeScan(p, "127.0.0.1:0", faultspace.ServeOptions{
						UnitSize: 16,
						OnListen: func(addr string) { addrCh <- addr },
					})
					if err != nil {
						b.Fatal(err)
					}
					wg.Wait()
				}
			})
		}
	}
}

// --- Component performance benchmarks ---

// BenchmarkSimulatorThroughput measures raw simulator speed in
// instructions per second on the hardened sync2 golden run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, err := progs.Sync2(3, 64).Hardened()
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(machine.Config{RAMSize: p.RAMSize}, p.Code, p.Image)
	if err != nil {
		b.Fatal(err)
	}
	reset := m.Snapshot()
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		m.Restore(reset)
		if st := m.Run(1 << 22); st != machine.StatusHalted {
			b.Fatalf("status %v", st)
		}
		total += m.Cycles()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkAssembler measures assembling the full sync2 hardened source
// (parse, harden expansion, two-pass assembly).
func BenchmarkAssembler(b *testing.B) {
	spec := progs.Sync2(3, 64)
	for i := 0; i < b.N; i++ {
		if _, err := spec.Hardened(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruningBuild measures def/use analysis of a hardened kernel
// golden trace.
func BenchmarkPruningBuild(b *testing.B) {
	p, err := progs.Sync2(3, 64).Hardened()
	if err != nil {
		b.Fatal(err)
	}
	golden, err := trace.Record(p.Name, machine.Config{RAMSize: p.RAMSize}, p.Code, p.Image, 1<<22)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pruning.Build(golden); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentExecution measures the cost of a single fault-
// injection experiment (snapshot restore + run to completion + classify).
func BenchmarkExperimentExecution(b *testing.B) {
	p, err := progs.BinSem2(2).Baseline()
	if err != nil {
		b.Fatal(err)
	}
	t := faultspace.Target(p)
	golden, fs, err := t.Prepare(1 << 22)
	if err != nil {
		b.Fatal(err)
	}
	if len(fs.Classes) == 0 {
		b.Fatal("no classes")
	}
	cls := fs.Classes[len(fs.Classes)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.RunSingle(t, golden, campaign.Config{}, cls.Slot(), cls.Bit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetrics measures the pure-math metric layer (coverage,
// extrapolation, Poisson, Wilson) — it should be effectively free next to
// the campaigns.
func BenchmarkMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := metrics.Coverage(48, 128); err != nil {
			b.Fatal(err)
		}
		if _, err := metrics.ExtrapolateFailures(1<<20, 37, 1000); err != nil {
			b.Fatal(err)
		}
		if _, err := metrics.PoissonPMF(1.3e-13, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := metrics.WilsonInterval(37, 1000, metrics.Z95); err != nil {
			b.Fatal(err)
		}
	}
}
