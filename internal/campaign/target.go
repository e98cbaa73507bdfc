package campaign

import (
	"fmt"
	"runtime"
	"time"

	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
	"faultspace/internal/trace"
)

// Target is a benchmark binary prepared for fault injection.
type Target struct {
	Name  string
	Code  []isa.Instruction
	Image []byte // initial RAM contents
	Mach  machine.Config
}

// Strategy selects how experiments re-reach the injection slot.
type Strategy uint8

// Experiment-execution strategies.
const (
	// StrategySnapshot advances a single pioneer machine through the golden
	// run and snapshots it at each injection slot, from which experiment
	// machines restore. Each experiment only executes the cycles after the
	// injection. Default.
	StrategySnapshot Strategy = iota + 1
	// StrategyRerun re-executes each experiment from the reset state. This
	// is the naive mode, kept as the reference the validation tests
	// compare against and for the ablation benchmark.
	StrategyRerun
)

// String names the strategy as reports and run manifests spell it. The
// zero value reads as the default it resolves to.
func (s Strategy) String() string {
	switch s {
	case StrategyRerun:
		return "rerun"
	case StrategySnapshot, 0:
		return "snapshot"
	}
	return "unknown"
}

// Config parameterizes campaign execution.
type Config struct {
	// TimeoutFactor bounds experiment runtime: an experiment is declared a
	// Timeout after TimeoutFactor × golden-runtime + TimeoutSlack cycles.
	// 0 means DefaultTimeoutFactor.
	TimeoutFactor float64
	// TimeoutSlack is a constant cycle allowance added on top (covers
	// correction slow paths of very short benchmarks). 0 means
	// DefaultTimeoutSlack.
	TimeoutSlack uint64
	// Workers is the number of parallel experiment executors.
	// 0 means GOMAXPROCS.
	Workers int
	// Strategy selects the execution strategy. 0 means StrategySnapshot.
	Strategy Strategy
	// Telemetry, when non-nil, receives scan metrics: the experiment
	// counter, per-outcome duration histograms and the memo counters
	// (see DESIGN.md §4d for the metric names). Like Strategy and
	// Workers it is outcome-invariant — telemetry observes a campaign,
	// never steers it — and is therefore excluded from the campaign
	// identity hash (invariant 10). nil disables all instrumentation at
	// zero cost.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, receives phase spans of the scan (strategy
	// run, golden-prefix feed) for the campaign timeline. Spans are
	// recorded at phase granularity — never per experiment — and, like
	// Telemetry, are purely observational: outcome-invariant and
	// excluded from the campaign identity hash (invariant 15). nil
	// disables span recording at zero cost (no clock reads, no allocs).
	Spans *telemetry.SpanRecorder
	// Predecode enables the machine's pre-decoded dispatch stream: the
	// program is lowered once per machine into a dense instruction stream
	// executed by a tight chunked loop (see machine.SetPredecode). The
	// fast path is exactly Step-equivalent — the predecode equivalence
	// and self-modify fuzz tests pin that down — so like Strategy it is
	// outcome-invariant and excluded from the campaign identity hash.
	Predecode bool
	// Memo enables cross-experiment outcome memoization: post-injection
	// machine states are hashed at fixed probe boundaries and "suffix
	// state → outcome remainder" entries are shared across all
	// experiments of the campaign (see memo.go). Outcome-invariant by
	// construction (invariant 11) and excluded from the identity hash.
	Memo bool
	// MemoCache, when non-nil, is the shared memoization cache to use
	// (implies Memo). Cluster workers pass one per campaign so entries
	// are shared across all leased work units; leaving it nil with Memo
	// set gives the scan a private per-call cache. The cache binds to the
	// first campaign identity and cycle budget it serves and rejects any
	// other — entries are only transferable between experiments with
	// identical machine semantics and budget.
	MemoCache *MemoCache
	// Objective, when non-nil, is the attacker-objective predicate
	// evaluated on every classified experiment (see objective.go): the
	// AttackFlag bit is set on outcomes that satisfy it. Unlike the
	// execution knobs above it CHANGES the recorded outcomes, so the
	// objective name is part of the campaign identity hash.
	Objective *Objective
	// Pool, when non-nil, recycles worker machines across scans instead
	// of allocating a fresh RAM image per worker per call. Cluster
	// workers use one pool per campaign so that every leased work unit
	// (one RunClasses call each) reuses the same machines. The pool must
	// have been created by NewMachinePool for this same target.
	Pool *MachinePool

	// OnResult, when non-nil, receives every completed experiment in
	// completion order. It is invoked from a single collector goroutine,
	// so implementations (e.g. a checkpoint writer) need no locking.
	OnResult func(class int, o Outcome)
	// OnProgress, when non-nil, receives progress events: one initial,
	// throttled intermediate ones, one final. Same goroutine as OnResult.
	OnProgress func(Progress)
	// ProgressInterval throttles intermediate progress events. 0 means
	// DefaultProgressInterval; a negative value emits one event per
	// completed experiment (useful in tests).
	ProgressInterval time.Duration
	// Interrupt, when non-nil, stops the scan as soon as it is closed:
	// no new experiments start, in-flight ones finish and are recorded,
	// and the scan returns ErrInterrupted.
	Interrupt <-chan struct{}

	// memoEvery, when non-zero, overrides the memo probe spacing (see
	// memoInterval). Only in-package tests set it, to probe densely on
	// programs shorter than memoMinInterval.
	memoEvery uint64
}

// Defaults for Config.
const (
	DefaultTimeoutFactor    = 4.0
	DefaultTimeoutSlack     = 256
	DefaultProgressInterval = time.Second
)

func (c Config) withDefaults() Config {
	if c.TimeoutFactor == 0 {
		c.TimeoutFactor = DefaultTimeoutFactor
	}
	if c.TimeoutSlack == 0 {
		c.TimeoutSlack = DefaultTimeoutSlack
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Strategy == 0 {
		c.Strategy = StrategySnapshot
	}
	if c.ProgressInterval == 0 {
		c.ProgressInterval = DefaultProgressInterval
	}
	return c
}

func (c Config) validate() error {
	if c.TimeoutFactor < 1 {
		return fmt.Errorf("campaign: TimeoutFactor %g must be >= 1", c.TimeoutFactor)
	}
	if c.Workers < 1 {
		return fmt.Errorf("campaign: Workers %d must be >= 1", c.Workers)
	}
	switch c.Strategy {
	case StrategySnapshot, StrategyRerun:
	default:
		return fmt.Errorf("campaign: unknown strategy %d", c.Strategy)
	}
	return nil
}

// memoEnabled reports whether outcome memoization is on: either the
// flag is set or the caller supplied a shared cache.
func (c Config) memoEnabled() bool {
	return c.Memo || c.MemoCache != nil
}

// timeoutBudget computes the per-experiment cycle budget.
func (c Config) timeoutBudget(goldenCycles uint64) uint64 {
	return uint64(c.TimeoutFactor*float64(goldenCycles)) + c.TimeoutSlack
}

// Prepare records the golden run of the target and builds its pruned
// main-memory fault space. maxGoldenCycles bounds the golden run itself
// (pass a generous value; the golden run must terminate).
func (t Target) Prepare(maxGoldenCycles uint64) (*trace.Golden, *pruning.FaultSpace, error) {
	return t.PrepareSpace(pruning.SpaceMemory, maxGoldenCycles)
}

// PrepareSpace is Prepare for an arbitrary fault-space kind.
func (t Target) PrepareSpace(kind pruning.SpaceKind, maxGoldenCycles uint64) (*trace.Golden, *pruning.FaultSpace, error) {
	golden, err := trace.Record(t.Name, t.Mach, t.Code, t.Image, maxGoldenCycles)
	if err != nil {
		return nil, nil, err
	}
	var fs *pruning.FaultSpace
	switch kind {
	case pruning.SpaceMemory:
		fs, err = pruning.Build(golden)
	case pruning.SpaceRegisters:
		fs, err = pruning.BuildRegisters(golden)
	case pruning.SpaceSkip:
		fs, err = pruning.BuildSkip(golden, t.Code)
	case pruning.SpacePC:
		fs, err = pruning.BuildPC(golden, uint32(len(t.Code)))
	case pruning.SpaceBurst2, pruning.SpaceBurst4:
		fs, err = pruning.BuildBurst(golden, kind.BurstWidth())
	default:
		return nil, nil, fmt.Errorf("campaign: unknown fault-space kind %d", kind)
	}
	if err != nil {
		return nil, nil, err
	}
	return golden, fs, nil
}

// newMachine builds a fresh reset-state machine for the target.
func (t Target) newMachine() (*machine.Machine, error) {
	return machine.New(t.Mach, t.Code, t.Image)
}
