package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"faultspace"
	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// compare-scan: the paper's Figure 2 pipeline, one caller. Each pass runs
// a checkpointed full memory-space Scan of all twelve variants in an
// order the seed fixes, each followed by Analyze, SaveScan and the digest
// check, and a Compare once both variants of a kernel are in. Runs are
// whole passes, so every run measures the same mix of campaigns.
func compareScan(cfg *config) (*outcome, error) {
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

	run := &scanRun{cfg: cfg, vs: vs, ids: make(map[*variant]string), ckpt: filepath.Join(cfg.work, "scan.ckpt")}
	for _, v := range vs {
		id, err := faultspace.CampaignIdentity(v.prog, faultspace.ScanOptions{})
		if err != nil {
			return nil, err
		}
		run.ids[v] = fmt.Sprintf("%x", id)
	}
	untraced := passLoop(nil, phaseBudget(cfg), 0, run.pass)
	if !cfg.traced {
		// A pass is one complete comparison of the six kernels — the
		// latency a user of the pipeline waits for. Per-campaign latencies
		// fall into twelve far-apart groups (10 ms to 1.2 s), so their
		// median sits on the edge between two groups and jumps between
		// runs.
		untraced.latencies = untraced.passMS
		untraced.fill(out)
		return out, nil
	}
	tr := st
	reg := faultspace.NewTelemetry()
	reg.EnableSpans(faultspace.NewTraceID(), "engine", 1<<16)
	run.reg = reg
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
	v["campaign.scan_ms.baseline"] = tr.ms("campaign.scan.baseline") / passes
	v["campaign.scan_ms.hardened"] = tr.ms("campaign.scan.hardened") / passes
	v["campaign.us_per_experiment"] = (tr.ms("campaign.scan.baseline") + tr.ms("campaign.scan.hardened")) * 1e3 / float64(traced.experiments)
	v["checkpoint.append_ms"] = tr.ms("checkpoint.append") / passes
	v["checkpoint.close_ms"] = tr.ms("checkpoint.close") / passes
	v["metrics.analyze_ms"] = tr.ms("metrics.analyze") / passes
	v["archive.encode_ms"] = tr.ms("archive.encode") / passes
	v["runtime.alloc_mb"] = allocMB / passes
	v["runtime.gc_pause_ms"] = pauseMS / passes
	v["bench.trace_overhead_frac"] = overhead(untraced.rate(), traced.rate())
	snap := reg.Snapshot()
	for _, name := range []string{
		"scan.experiments", "pool.reuse", "pool.alloc", "ladder.rung_restores", "ladder.reconverged",
		"ladder.loop_proofs", "fork.children", "fork.prefix_cycles_saved", "memo.hits", "memo.misses",
		"predecode.invalidations", "checkpoint.flushes",
	} {
		v[name] = float64(snap.Counters[name]) / passes
	}
	if err := finishTrace(cfg, tr, out, "bench.pass"); err != nil {
		return nil, err
	}
	return out, nil
}

// analysisPair collects a kernel's two analyses within a pass.
type analysisPair struct{ base, hard *faultspace.Analysis }

// scanRun is the state of one compare-scan run.
type scanRun struct {
	cfg  *config
	vs   []*variant
	ids  map[*variant]string // campaign identity (hex) of each variant's scan
	ckpt string
	reg  *faultspace.Telemetry // traced phase: the program's counters and spans

	cycles  uint64 // golden cycles, traced phase
	classes int    // pruned classes, traced phase
}

func (r *scanRun) pass(tr *tracer, pass int, ps *phaseStats) {
	pairs := make(map[string]*analysisPair)
	for _, i := range seeded(r.cfg.seed, int64(pass)).Perm(len(r.vs)) {
		v := r.vs[i]
		ps.attempted++
		n, err := r.campaign(tr, v, pairs)
		if err != nil {
			ps.fail("compare-scan %s: %v", v.name(), err)
			continue
		}
		ps.campaigns++
		ps.experiments += n
	}
}

// campaign runs one checkpointed scan, analyses, archives and checks it,
// and compares once both variants of the kernel are done. It returns the
// number of experiments executed.
func (r *scanRun) campaign(tr *tracer, v *variant, pairs map[string]*analysisPair) (int, error) {
	if err := os.Remove(r.ckpt); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	opts := faultspace.ScanOptions{Predecode: true, Checkpoint: r.ckpt}
	var res *faultspace.ScanResult
	var err error
	if tr == nil {
		res, err = faultspace.Scan(v.prog, opts)
	} else {
		res, err = r.tracedScan(tr, v)
	}
	if err != nil {
		return 0, err
	}
	end := tr.start(benchScope, "metrics.analyze")
	a, err := faultspace.Analyze(res)
	end()
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	end = tr.start(benchScope, "archive.encode")
	err = faultspace.SaveScan(&buf, res)
	end()
	if err != nil {
		return 0, err
	}
	if err := r.cfg.refs.checkScan(r.ids[v], buf.Bytes()); err != nil {
		return 0, err
	}
	p := pairs[v.kernel]
	if p == nil {
		p = &analysisPair{}
		pairs[v.kernel] = p
	}
	if v.hardened {
		p.hard = &a
	} else {
		p.base = &a
	}
	if p.base != nil && p.hard != nil {
		end = tr.start(benchScope, "metrics.analyze")
		_, err = faultspace.Compare(*p.base, *p.hard)
		end()
		if err != nil {
			return 0, err
		}
	}
	return len(res.Outcomes), nil
}

// tracedScan is faultspace.Scan with a checkpoint, taken apart so that
// each layer's call gets its own span: trace.Record, pruning.Build,
// checkpoint.Create, campaign.ResumeScan (checkpoint appends timed in the
// result callback), checkpoint Close.
func (r *scanRun) tracedScan(tr *tracer, v *variant) (*faultspace.ScanResult, error) {
	t := faultspace.Target(v.prog)
	end := tr.start(benchScope, "trace.golden")
	golden, err := trace.Record(t.Name, t.Mach, t.Code, t.Image, faultspace.DefaultMaxGoldenCycles)
	end()
	if err != nil {
		return nil, err
	}
	r.cycles += golden.Cycles
	end = tr.start(benchScope, "pruning.build")
	fs, err := pruning.Build(golden)
	end()
	if err != nil {
		return nil, err
	}
	r.classes += len(fs.Classes)
	ccfg := campaign.Config{Predecode: true, Telemetry: r.reg, Spans: r.reg.SpanRecorder()}
	id, err := t.CampaignIdentity(fs.Kind, ccfg)
	if err != nil {
		return nil, err
	}
	end = tr.start(benchScope, "checkpoint.create")
	w, err := checkpoint.Create(r.ckpt, checkpoint.Header{Version: checkpoint.Version, Identity: id, Classes: uint64(len(fs.Classes))})
	end()
	if err != nil {
		return nil, err
	}
	w.Instrument(r.reg)
	var appendTime time.Duration
	var appends int
	ccfg.OnResult = func(ci int, o campaign.Outcome) {
		t0 := time.Now()
		// As in faultspace.Scan, a failed append surfaces from Close.
		w.Append(ci, uint8(o))
		appendTime += time.Since(t0)
		appends++
	}
	name := "campaign.scan.baseline"
	if v.hardened {
		name = "campaign.scan.hardened"
	}
	end = tr.start(benchScope, name)
	res, scanErr := campaign.ResumeScan(t, golden, fs, ccfg, nil)
	end()
	tr.addTime("checkpoint.append", appendTime, appends)
	end = tr.start(benchScope, "checkpoint.close")
	closeErr := w.Close()
	end()
	for _, s := range r.reg.SpanRecorder().Drain() {
		tr.add(s)
	}
	if scanErr != nil {
		return nil, scanErr
	}
	return res, closeErr
}
