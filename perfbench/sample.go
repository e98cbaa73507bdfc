package main

import (
	"fmt"
	"time"

	"faultspace"
	"faultspace/internal/campaign"
	"faultspace/internal/metrics"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// sampleN is the number of raw-space draws per sampling campaign.
const sampleN = 1000

// samplingSeeds is the pool the workload seed picks each campaign's
// sampling seed from; the references cover every one of them, so the
// check is exact rather than statistical.
var samplingSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

func sampleKey(v *variant, kind faultspace.SpaceKind, seed int64) string {
	return fmt.Sprintf("%s/%s/%d/%d", v.name(), kind, sampleN, seed)
}

// sample-compare: the paper's recommended estimate. Each pass draws a
// raw-space Sample of N = 1000 for all twelve variants in all six fault
// spaces, in an order and with sampling seeds the workload seed fixes,
// checks each result against its reference, and extrapolates failures
// with Wilson intervals and the comparison ratio r.
func sampleCompare(cfg *config) (*outcome, error) {
	vs := compareVariants()
	var st *tracer
	if cfg.traced {
		st = newTracer()
	}
	setups, err := timeSetups(func() error { return buildAll(st, vs) })
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.values["setup_s"] = median(setups)
	out.samples["setup_s"] = len(setups)

	run := &sampleRun{cfg: cfg}
	for _, v := range vs {
		for _, k := range spaces {
			run.jobs = append(run.jobs, sampleJob{v: v, kind: k})
		}
	}
	untraced := passLoop(nil, phaseBudget(cfg), 0, run.pass)
	if !cfg.traced {
		untraced.fill(out)
		return out, nil
	}
	tr := st
	mem := startMem()
	traced := passLoop(tr, phaseBudget(cfg), untraced.passes, run.pass)
	allocMB, pauseMS := mem.end()
	out.attempted = untraced.attempted + traced.attempted
	out.failed = untraced.failed + traced.failed

	passes := float64(traced.passes)
	v := out.values
	v["progs.build_ms"] = tr.ms("progs.build") / setupRepeats
	v["trace.golden_ms"] = tr.ms("trace.golden") / passes
	v["trace.cycles_per_us"] = float64(run.cycles) / (tr.ms("trace.golden") * 1e3)
	v["pruning.build_ms"] = tr.ms("pruning.build") / passes
	v["pruning.classes"] = float64(run.classes) / passes
	v["campaign.sample_ms"] = tr.ms("campaign.sample") / passes
	v["campaign.sample_useful_ratio"] = float64(traced.experiments) / float64(run.draws)
	v["scan.experiments"] = float64(traced.experiments) / passes
	v["metrics.analyze_ms"] = tr.ms("metrics.analyze") / passes
	v["runtime.alloc_mb"] = allocMB / passes
	v["runtime.gc_pause_ms"] = pauseMS / passes
	v["bench.trace_overhead_frac"] = overhead(untraced.rate(), traced.rate())
	if err := finishTrace(cfg, tr, out, "bench.pass"); err != nil {
		return nil, err
	}
	return out, nil
}

type sampleJob struct {
	v    *variant
	kind faultspace.SpaceKind
}

// sampleRun is the state of one sample-compare run.
type sampleRun struct {
	cfg  *config
	jobs []sampleJob

	cycles  uint64 // golden cycles, traced phase
	classes int    // pruned classes, traced phase
	draws   int    // samples drawn, traced phase
}

// sampleDraw is one campaign of a sample-compare pass: which job, with
// which sampling seed.
type sampleDraw struct {
	job  int
	seed int64
}

// samplePlan expands the workload seed into one pass's campaigns: the
// order of the jobs and each one's sampling seed.
func samplePlan(seed int64, pass, jobs int) []sampleDraw {
	rng := seeded(seed, int64(pass))
	plan := make([]sampleDraw, jobs)
	for i, j := range rng.Perm(jobs) {
		plan[i].job = j
	}
	for i := range plan {
		plan[i].seed = samplingSeeds[rng.Intn(len(samplingSeeds))]
	}
	return plan
}

func (r *sampleRun) pass(tr *tracer, pass int, ps *phaseStats) {
	// Extrapolated failure counts per kernel and space, baseline first,
	// for the comparison ratio once both variants are in.
	type pairKey struct {
		kernel string
		kind   faultspace.SpaceKind
	}
	pairs := make(map[pairKey][2]*float64)
	for _, d := range samplePlan(r.cfg.seed, pass, len(r.jobs)) {
		j, seed := r.jobs[d.job], d.seed
		ps.attempted++
		t0 := time.Now()
		sr, err := r.sample(tr, j, seed)
		if err == nil {
			err = r.cfg.refs.checkSample(sampleKey(j.v, j.kind, seed), sr)
		}
		var extrapolated float64
		if err == nil {
			end := tr.start(benchScope, "metrics.analyze")
			extrapolated, err = estimate(sr)
			end()
		}
		if err != nil {
			ps.fail("sample-compare %s: %v", sampleKey(j.v, j.kind, seed), err)
			continue
		}
		k := pairKey{j.v.kernel, j.kind}
		p := pairs[k]
		if j.v.hardened {
			p[1] = &extrapolated
		} else {
			p[0] = &extrapolated
		}
		pairs[k] = p
		if p[0] != nil && p[1] != nil && *p[0] > 0 {
			end := tr.start(benchScope, "metrics.analyze")
			_, err = metrics.Ratio(*p[1], *p[0])
			end()
			if err != nil {
				ps.fail("sample-compare ratio %s/%s: %v", j.v.kernel, j.kind, err)
				continue
			}
		}
		ps.latencies = append(ps.latencies, float64(time.Since(t0).Microseconds())/1e3)
		ps.campaigns++
		ps.experiments += sr.Experiments
	}
}

// estimate extrapolates the sampled failures to the whole fault space
// with their 95% Wilson interval (§V-C).
func estimate(sr *campaign.SampleResult) (float64, error) {
	n := uint64(sr.N)
	f, err := metrics.ExtrapolateFailures(sr.Population, sr.Failures(), n)
	if err != nil {
		return 0, err
	}
	iv, err := metrics.WilsonInterval(sr.Failures(), n, metrics.Z95)
	if err != nil {
		return 0, err
	}
	if e := metrics.ExtrapolatedInterval(iv, sr.Population); f < e.Lo || f > e.Hi {
		return 0, fmt.Errorf("extrapolated failures %g outside their interval [%g, %g]", f, e.Lo, e.Hi)
	}
	return f, nil
}

// sample runs one sampling campaign: through faultspace.Sample when
// untraced, taken apart into its layer calls when traced.
func (r *sampleRun) sample(tr *tracer, j sampleJob, seed int64) (*campaign.SampleResult, error) {
	if tr == nil {
		return faultspace.Sample(j.v.prog, faultspace.SampleOptions{
			ScanOptions: faultspace.ScanOptions{Predecode: true, Space: j.kind}, N: sampleN, Seed: seed,
		})
	}
	t := faultspace.Target(j.v.prog)
	end := tr.start(benchScope, "trace.golden")
	golden, err := trace.Record(t.Name, t.Mach, t.Code, t.Image, faultspace.DefaultMaxGoldenCycles)
	end()
	if err != nil {
		return nil, err
	}
	r.cycles += golden.Cycles
	end = tr.start(benchScope, "pruning.build")
	fs, err := buildSpace(j.kind, golden, t)
	end()
	if err != nil {
		return nil, err
	}
	r.classes += len(fs.Classes)
	end = tr.start(benchScope, "campaign.sample")
	sr, err := campaign.SampleScan(t, golden, fs, campaign.Config{Predecode: true}, campaign.SampleRaw, sampleN, seed)
	end()
	if err != nil {
		return nil, err
	}
	r.draws += sr.N
	return sr, nil
}

// buildSpace calls the pruning builder of a fault space, as
// campaign.Target.PrepareSpace does after the golden run.
func buildSpace(kind faultspace.SpaceKind, g *trace.Golden, t campaign.Target) (*pruning.FaultSpace, error) {
	switch kind {
	case pruning.SpaceMemory:
		return pruning.Build(g)
	case pruning.SpaceRegisters:
		return pruning.BuildRegisters(g)
	case pruning.SpaceSkip:
		return pruning.BuildSkip(g, t.Code)
	case pruning.SpacePC:
		return pruning.BuildPC(g, uint32(len(t.Code)))
	case pruning.SpaceBurst2, pruning.SpaceBurst4:
		return pruning.BuildBurst(g, kind.BurstWidth())
	}
	return nil, fmt.Errorf("unknown fault space %v", kind)
}
