// Package faultspace is a fault-injection (FI) evaluation toolkit that
// reproduces "Avoiding Pitfalls in Fault-Injection Based Comparison of
// Program Susceptibility to Soft Errors" (Schirmeier, Borchert, Spinczyk;
// DSN 2015).
//
// It provides, end to end:
//
//   - a deterministic fav32 RISC simulator and assembler (the paper's
//     machine model: in-order, one cycle per instruction, fault-immune ROM),
//   - golden-run tracing and def/use fault-space pruning with exact
//     per-class weights (Pitfall 1),
//   - full fault-space scans and sampling campaigns, including the biased
//     class-sampling procedure of Pitfall 2 for demonstration,
//   - the metrics the paper dissects: fault coverage (weighted, unweighted,
//     activated-only) and the proposed comparison metric — extrapolated
//     absolute failure counts with the comparison ratio r (Pitfall 3),
//   - software-based hardware fault-tolerance transformations: SUM+DMR
//     hardening, plus the paper's deliberately bogus DFT/DFT′ dilution
//     transformations for the §IV Gedankenexperiment,
//   - ports of the paper's benchmarks: hi, bin_sem2, sync2 on a small
//     cooperative threading kernel.
//
// The typical pipeline:
//
//	prog, _ := faultspace.AssembleSource("hi", src)
//	scan, _ := faultspace.Scan(prog, faultspace.ScanOptions{})
//	a := faultspace.Analyze(scan)
//	fmt.Println(a.CoverageWeighted, a.FailWeight)
//
// Comparing a hardened variant against its baseline:
//
//	cmp := faultspace.Compare(faultspace.Analyze(base), faultspace.Analyze(hard))
//	if cmp.RatioWeighted < 1 { /* hardening actually helps */ }
package faultspace

import (
	"errors"
	"fmt"
	"io"
	"time"

	"faultspace/internal/asm"
	"faultspace/internal/campaign"
	"faultspace/internal/checkpoint"
	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// Program is an assembled fav32 benchmark binary.
type Program = asm.Program

// ScanResult is the outcome of a full fault-space scan.
type ScanResult = campaign.Result

// Golden is the record of a fault-free reference run.
type Golden = trace.Golden

// FaultSpace is a def/use-pruned fault space.
type FaultSpace = pruning.FaultSpace

// AssembleSource assembles fav32 assembly into a Program. Sources using
// the pld/pst protected-access pseudo instructions must instead be built
// through internal/progs or an explicit hardening variant.
func AssembleSource(name, src string) (*Program, error) {
	return asm.Assemble(name, src)
}

// SpaceKind selects which machine state faults are injected into.
type SpaceKind = pruning.SpaceKind

// Fault-space kinds.
const (
	// SpaceMemory is the paper's primary fault model: transient single-bit
	// flips in main memory.
	SpaceMemory = pruning.SpaceMemory
	// SpaceRegisters is the §VI-B generalization: flips in the CPU
	// register file.
	SpaceRegisters = pruning.SpaceRegisters
	// SpaceSkip is the attack-style instruction-skip model: the
	// instruction at each slot is suppressed (one per-slot coordinate,
	// Bits = 1).
	SpaceSkip = pruning.SpaceSkip
	// SpacePC is the attack-style program-counter model: a single-bit
	// flip in the 32-bit PC at each slot boundary.
	SpacePC = pruning.SpacePC
	// SpaceBurst2 and SpaceBurst4 are multi-bit burst models: k adjacent
	// bits of one RAM byte invert at once (k = 2 and 4).
	SpaceBurst2 = pruning.SpaceBurst2
	SpaceBurst4 = pruning.SpaceBurst4
)

// Strategy selects how scan experiments re-reach their injection slot.
type Strategy = campaign.Strategy

// Experiment-execution strategies. Both produce byte-identical scan
// results (the strategy-equivalence invariant); they differ only in
// speed.
const (
	// StrategySnapshot advances one pioneer machine through the golden run
	// and restores experiment machines from its state at each injection
	// slot. Default.
	StrategySnapshot = campaign.StrategySnapshot
	// StrategyRerun re-executes every experiment from the reset state —
	// the naive mode, kept as the validation reference and for ablation.
	StrategyRerun = campaign.StrategyRerun
)

// Progress is one event of a scan's progress stream; see ScanOptions.
type Progress = campaign.Progress

// Telemetry is a metrics and event-trace registry: named atomic
// counters, gauges and duration histograms plus an optional bounded
// ring-buffer event tracer. Attach one via ScanOptions.Telemetry (or
// ServeOptions/JoinOptions) to observe a campaign; a nil registry
// disables all instrumentation at zero cost. Telemetry never changes
// scan results (DESIGN.md invariant 10).
type Telemetry = telemetry.Registry

// NewTelemetry creates an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// TraceID is a 128-bit campaign trace identifier: minted at submission,
// propagated through the cluster wire protocol, stamped on every
// exported timeline. The zero TraceID means "tracing off". Trace IDs
// are identification, not configuration — they are excluded from the
// campaign identity hash (DESIGN.md invariant 15).
type TraceID = telemetry.TraceID

// NewTraceID mints a random trace ID.
func NewTraceID() TraceID { return telemetry.NewTraceID() }

// Span is one completed timed operation in a campaign timeline.
type Span = telemetry.Span

// SpanRecorder is a bounded, concurrency-safe store of completed spans.
// Attach one to a Telemetry registry via Telemetry.EnableSpans to trace
// a scan; a nil recorder disables span tracing at zero cost.
type SpanRecorder = telemetry.SpanRecorder

// WriteChromeTrace writes a span timeline as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, trace TraceID, spans []Span) error {
	return telemetry.WriteChromeTrace(w, trace, spans)
}

// WriteSpansJSONL writes spans as one JSON object per line — the
// streaming-friendly sibling of WriteChromeTrace.
func WriteSpansJSONL(w io.Writer, trace TraceID, spans []Span) error {
	return telemetry.WriteSpansJSONL(w, trace, spans)
}

// WritePrometheus renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4), with the given constant labels on
// every series (nil for none). The coordinator, service and favscan
// -metrics listener all serve this under /metrics.
func WritePrometheus(w io.Writer, snap telemetry.Snapshot, labels map[string]string) error {
	return telemetry.WritePrometheus(w, snap, labels)
}

// RunManifest is the machine-readable record of one campaign run:
// campaign identity and configuration, wall/CPU timing, the final
// counter snapshot and retained trace events. favscan -telemetry
// writes one per run.
type RunManifest = telemetry.Manifest

// ErrInterrupted is returned by Scan when the campaign was stopped via
// ScanOptions.Interrupt. All completed experiments have been flushed to
// the checkpoint (if one is configured); rerun with Resume to continue.
var ErrInterrupted = campaign.ErrInterrupted

// ScanOptions parameterizes Scan.
type ScanOptions struct {
	// TimeoutFactor bounds experiment runtime as a multiple of the golden
	// runtime (default 4).
	TimeoutFactor float64
	// Workers is the number of parallel experiment executors (default:
	// GOMAXPROCS).
	Workers int
	// Strategy selects the execution strategy (default StrategySnapshot).
	// Strategies are outcome-invariant: they never change the scan result.
	Strategy Strategy
	// Predecode enables the simulator's pre-decoded dispatch stream: the
	// program is lowered once per worker machine into a dense instruction
	// stream executed by a tight chunked loop. Outcome-invariant — the
	// fast path is proven Step-equivalent — so like Strategy it never
	// changes scan results and is excluded from the campaign identity.
	Predecode bool
	// Memo enables cross-experiment outcome memoization: post-injection
	// machine states are hashed at fixed probe boundaries and the
	// remainder of each run is shared across all experiments of the
	// campaign. Outcome-invariant (DESIGN.md invariant 11).
	Memo bool
	// MaxGoldenCycles bounds the golden run (default 1<<22).
	MaxGoldenCycles uint64
	// Space selects the fault space (default SpaceMemory).
	Space SpaceKind
	// Objective names an attacker-objective predicate ("" = none; see
	// ObjectiveNames for the builtins). Outcomes satisfying the objective
	// carry the attack flag; unlike the execution knobs this CHANGES the
	// recorded outcomes, so the name is part of the campaign identity.
	Objective string

	// Checkpoint, when non-empty, streams every completed experiment into
	// the crash-safe checkpoint file at this path (see internal/checkpoint
	// for the format). The file is keyed by the campaign identity hash, so
	// it can never be resumed against a different program, fault space or
	// outcome-relevant configuration.
	Checkpoint string
	// Resume continues a previous campaign from Checkpoint: completed
	// classes are loaded and skipped, only the remainder runs. If the
	// checkpoint file does not exist yet, the scan starts fresh — so
	// passing Checkpoint+Resume unconditionally gives at-least-once
	// crash-restart semantics. Without Resume, Scan refuses to overwrite
	// an existing checkpoint.
	Resume bool
	// OnProgress, when non-nil, receives progress events: one initial,
	// throttled intermediate ones (see ProgressInterval), one final.
	OnProgress func(Progress)
	// ProgressInterval throttles intermediate progress events
	// (default 1s; negative = one event per experiment).
	ProgressInterval time.Duration
	// Interrupt, when non-nil, stops the scan gracefully once closed:
	// in-flight experiments finish and are checkpointed, then Scan
	// returns the partial result with ErrInterrupted.
	Interrupt <-chan struct{}
	// Telemetry, when non-nil, collects campaign metrics: experiment
	// counts, per-outcome timing histograms, memo counters and
	// checkpoint I/O. Outcome-invariant (invariant 10) and excluded
	// from the campaign identity hash, exactly like Strategy and Workers.
	Telemetry *Telemetry
}

// DefaultMaxGoldenCycles bounds golden runs when ScanOptions leaves
// MaxGoldenCycles zero.
const DefaultMaxGoldenCycles = 1 << 22

func (o ScanOptions) campaignConfig() (campaign.Config, error) {
	obj, err := campaign.ObjectiveByName(o.Objective)
	if err != nil {
		return campaign.Config{}, err
	}
	cfg := campaign.Config{
		TimeoutFactor:    o.TimeoutFactor,
		Workers:          o.Workers,
		Strategy:         o.Strategy,
		Predecode:        o.Predecode,
		Memo:             o.Memo,
		Objective:        obj,
		OnProgress:       o.OnProgress,
		ProgressInterval: o.ProgressInterval,
		Interrupt:        o.Interrupt,
		Telemetry:        o.Telemetry,
		// Span tracing rides the registry: EnableSpans attaches a recorder,
		// a bare registry (or none) leaves cfg.Spans nil and the scan pays
		// nothing. Nil-safe through the whole chain.
		Spans: o.Telemetry.SpanRecorder(),
	}
	return cfg, nil
}

func (o ScanOptions) maxGolden() uint64 {
	if o.MaxGoldenCycles == 0 {
		return DefaultMaxGoldenCycles
	}
	return o.MaxGoldenCycles
}

// space resolves the fault-space kind, rejecting unknown values instead
// of silently defaulting them to SpaceMemory: a typo'd kind must never
// quietly scan the wrong space.
func (o ScanOptions) space() (SpaceKind, error) {
	if o.Space == 0 {
		return SpaceMemory, nil
	}
	if !o.Space.Valid() {
		return 0, fmt.Errorf("unknown fault-space kind %d", o.Space)
	}
	return o.Space, nil
}

// ObjectiveNames lists the builtin attacker-objective names accepted by
// ScanOptions.Objective, sorted.
func ObjectiveNames() []string { return campaign.ObjectiveNames() }

// MachineConfig derives the simulator configuration of a program.
func MachineConfig(p *Program) machine.Config {
	return machine.Config{
		RAMSize:     p.RAMSize,
		TimerPeriod: p.TimerPeriod,
		TimerVector: p.TimerVector,
	}
}

// Target builds the campaign target for a program.
func Target(p *Program) campaign.Target {
	return campaign.Target{
		Name:  p.Name,
		Code:  p.Code,
		Image: p.Image,
		Mach:  MachineConfig(p),
	}
}

// Scan records the golden run of the program, prunes its fault space and
// performs a complete fault-space scan: one experiment per def/use
// equivalence class. With ScanOptions.Checkpoint set, completed
// experiments stream into a crash-safe checkpoint file; with Resume, a
// previous campaign's checkpoint is continued instead of restarted.
func Scan(p *Program, opts ScanOptions) (*ScanResult, error) {
	t := Target(p)
	kind, err := opts.space()
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	golden, fs, err := t.PrepareSpace(kind, opts.maxGolden())
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	cfg, err := opts.campaignConfig()
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	if opts.Checkpoint == "" {
		res, err := campaign.ResumeScan(t, golden, fs, cfg, nil)
		if err != nil {
			if errors.Is(err, campaign.ErrInterrupted) {
				return res, fmt.Errorf("faultspace: %w", err)
			}
			return nil, fmt.Errorf("faultspace: %w", err)
		}
		return res, nil
	}
	return scanCheckpointed(t, golden, fs, cfg, opts)
}

// scanCheckpointed runs a full scan that streams completed experiments
// into (and, when resuming, restores them from) a checkpoint file.
func scanCheckpointed(t campaign.Target, golden *Golden, fs *FaultSpace, cfg campaign.Config, opts ScanOptions) (*ScanResult, error) {
	id, err := t.CampaignIdentity(fs.Kind, cfg)
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	hdr := checkpoint.Header{Version: checkpoint.Version, Identity: id, Classes: uint64(len(fs.Classes))}

	var w *checkpoint.Writer
	var prior map[int]campaign.Outcome
	if opts.Resume {
		var raw map[int]uint8
		w, raw, err = checkpoint.Open(opts.Checkpoint, hdr)
		if err != nil {
			return nil, fmt.Errorf("faultspace: %w", err)
		}
		prior = make(map[int]campaign.Outcome, len(raw))
		for ci, o := range raw {
			if !campaign.Outcome(o).Known() {
				w.Close()
				return nil, fmt.Errorf("faultspace: checkpoint class %d has unknown outcome %d", ci, o)
			}
			prior[ci] = campaign.Outcome(o)
		}
	} else {
		w, err = checkpoint.Create(opts.Checkpoint, hdr)
		if err != nil {
			return nil, fmt.Errorf("faultspace: %w (resume to continue an existing checkpoint)", err)
		}
	}
	w.Instrument(cfg.Telemetry)
	cfg.OnResult = func(ci int, o campaign.Outcome) { w.Append(ci, uint8(o)) }

	res, scanErr := campaign.ResumeScan(t, golden, fs, cfg, prior)
	// Close flushes buffered records — including on the interrupt path,
	// which is what makes a SIGINT-killed campaign resumable without loss.
	if cerr := w.Close(); cerr != nil && scanErr == nil {
		return nil, fmt.Errorf("faultspace: %w", cerr)
	}
	if scanErr != nil {
		if errors.Is(scanErr, campaign.ErrInterrupted) {
			return res, fmt.Errorf("faultspace: %w", scanErr)
		}
		return nil, fmt.Errorf("faultspace: %w", scanErr)
	}
	return res, nil
}

// CampaignIdentity returns the campaign identity hash Scan would use for
// this program and options — the key binding checkpoints and archives to
// their campaign (see campaign.Target.CampaignIdentity).
func CampaignIdentity(p *Program, opts ScanOptions) ([32]byte, error) {
	kind, err := opts.space()
	if err != nil {
		return [32]byte{}, fmt.Errorf("faultspace: %w", err)
	}
	cfg, err := opts.campaignConfig()
	if err != nil {
		return [32]byte{}, fmt.Errorf("faultspace: %w", err)
	}
	return Target(p).CampaignIdentity(kind, cfg)
}

// SampleOptions parameterizes Sample.
type SampleOptions struct {
	ScanOptions
	// N is the number of samples to draw (required).
	N int
	// Seed makes the campaign reproducible.
	Seed int64
	// Biased draws equivalence classes uniformly instead of raw fault-space
	// coordinates — the statistically wrong procedure of Pitfall 2.
	Biased bool
	// Effective samples only the reduced population w′ (excluding
	// known-No-Effect coordinates, §V-C Corollary 1).
	Effective bool
}

// Sample runs a sampling campaign over the program's fault space.
func Sample(p *Program, opts SampleOptions) (*campaign.SampleResult, error) {
	t := Target(p)
	kind, err := opts.space()
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	golden, fs, err := t.PrepareSpace(kind, opts.maxGolden())
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	mode := campaign.SampleRaw
	switch {
	case opts.Biased && opts.Effective:
		return nil, fmt.Errorf("faultspace: Biased and Effective sampling are mutually exclusive")
	case opts.Biased:
		mode = campaign.SampleClasses
	case opts.Effective:
		mode = campaign.SampleEffective
	}
	cfg, err := opts.campaignConfig()
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	sr, err := campaign.SampleScan(t, golden, fs, cfg, mode, opts.N, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("faultspace: %w", err)
	}
	return sr, nil
}
