package faultspace

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"faultspace/internal/progs"
)

// equivSizes shrinks every bundled benchmark so the naive rerun strategy
// stays affordable: the differential matrix runs each benchmark under
// every strategy in every fault space, plus an interrupted+resumed pass.
var equivSizes = progs.Sizes{
	BinSemRounds:  1,
	SyncRounds:    1,
	SyncBufBytes:  16,
	ClockTicks:    2,
	ClockPeriod:   32,
	MboxMessages:  2,
	PreemptWork:   8,
	PreemptPeriod: 24,
	SortElements:  6,
}

func equivProgram(t *testing.T, name string) *Program {
	t.Helper()
	spec, err := progs.Resolve(name, equivSizes)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// equivHardened is equivProgram's SUM+DMR variant.
func equivHardened(t *testing.T, name string) *Program {
	t.Helper()
	spec, err := progs.Resolve(name, equivSizes)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Hardened()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func assertSameOutcomes(t *testing.T, label string, want, got *ScanResult) {
	t.Helper()
	if len(want.Outcomes) != len(got.Outcomes) {
		t.Fatalf("%s: %d outcomes vs %d", label, len(got.Outcomes), len(want.Outcomes))
	}
	for i := range want.Outcomes {
		if want.Outcomes[i] != got.Outcomes[i] {
			t.Fatalf("%s: class %d (slot %d, bit %d): %v vs %v", label, i,
				want.Space.Classes[i].Slot(), want.Space.Classes[i].Bit,
				got.Outcomes[i], want.Outcomes[i])
		}
	}
}

// scanBytes serializes a scan result through the JSON archive writer —
// the strongest equality check available: if two results archive to the
// same bytes, every report derived from them is byte-identical too.
func scanBytes(t *testing.T, res *ScanResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveScan(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStrategyEquivalenceAllBenchmarks is the differential strategy-
// equivalence matrix (DESIGN.md invariants 9 and 11): for every bundled
// benchmark, plus the SUM+DMR variant of sort1, × every fault-space
// kind, the {snapshot, rerun} × {predecode on/off} grid — plus
// telemetry-instrumented and span-traced variants — must archive
// byte-identically to the naive plain-decoder rerun reference. Snapshot
// rows memoize as their campaign's admission decides; the SUM+DMR
// program's instrumented snapshot row must actually hit the memo cache,
// so the grid never silently loses its memo coverage. This is the
// invariant that justifies excluding Strategy, Predecode and
// memoization from the campaign identity hash.
func TestStrategyEquivalenceAllBenchmarks(t *testing.T) {
	strategies := []struct {
		name string
		s    Strategy
	}{
		{"snapshot", StrategySnapshot},
		{"rerun", StrategyRerun},
	}
	type program struct {
		name string
		prog *Program
	}
	var programs []program
	for _, name := range progs.Names() {
		programs = append(programs, program{name, equivProgram(t, name)})
	}
	const hardened = "sort1+sumdmr"
	programs = append(programs, program{hardened, equivHardened(t, "sort1")})
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			prog := pr.prog
			for _, space := range []SpaceKind{SpaceMemory, SpaceRegisters,
				SpaceSkip, SpacePC, SpaceBurst2, SpaceBurst4} {
				rerun, err := Scan(prog, ScanOptions{Space: space, Strategy: StrategyRerun})
				if err != nil {
					t.Fatal(err)
				}
				ref := scanBytes(t, rerun)
				type tcase struct {
					label string
					opts  ScanOptions
					tel   bool
					trace bool
				}
				var cases []tcase
				// The accelerator grid: every strategy with and without the
				// pre-decoded dispatch stream.
				for _, strat := range strategies {
					for _, pre := range []bool{false, true} {
						cases = append(cases, tcase{
							label: fmt.Sprintf("%s/pre=%t", strat.name, pre),
							opts:  ScanOptions{Space: space, Strategy: strat.s, Predecode: pre},
						})
					}
				}
				// Invariant 10: telemetry observes a campaign, never steers
				// it — instrumented scans of every strategy, with predecode
				// on, must archive byte-identically to the uninstrumented
				// plain rerun reference.
				for _, strat := range strategies {
					cases = append(cases, tcase{
						label: strat.name + "/pre=true+telemetry",
						opts:  ScanOptions{Space: space, Strategy: strat.s, Predecode: true},
						tel:   true,
					})
				}
				// Invariant 15: tracing is identification, never
				// configuration — span-traced scans of every strategy must
				// archive byte-identically to the untraced reference while
				// actually recording a timeline.
				for _, strat := range strategies {
					cases = append(cases, tcase{
						label: strat.name + "/pre=true+trace",
						opts:  ScanOptions{Space: space, Strategy: strat.s, Predecode: true},
						trace: true,
					})
				}
				for _, tc := range cases {
					var reg *Telemetry
					if tc.tel {
						reg = NewTelemetry()
						tc.opts.Telemetry = reg
					}
					if tc.trace {
						reg = NewTelemetry()
						reg.EnableSpans(NewTraceID(), "local", 0)
						tc.opts.Telemetry = reg
					}
					label := fmt.Sprintf("%s %s vs rerun", space, tc.label)
					got, err := Scan(prog, tc.opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertSameOutcomes(t, label, rerun, got)
					if got.Identity != rerun.Identity {
						t.Errorf("%s: strategies must share one campaign identity", label)
					}
					if !bytes.Equal(scanBytes(t, got), ref) {
						t.Errorf("%s: archived reports are not byte-identical", label)
					}
					if tc.tel {
						snap := reg.Snapshot()
						if exp := snap.Counters["scan.experiments"]; exp != uint64(len(got.Space.Classes)) {
							t.Errorf("%s: scan.experiments = %d, want %d", label, exp, len(got.Space.Classes))
						}
						if pr.name == hardened && space == SpaceMemory &&
							tc.opts.Strategy == StrategySnapshot && snap.Counters["memo.hits"] == 0 {
							t.Errorf("%s: memo.hits = 0 — the grid no longer exercises memoization", label)
						}
					}
					if tc.trace {
						spans := reg.SpanRecorder().Spans()
						haveRun := false
						for _, sp := range spans {
							if sp.Name == "scan.run" {
								haveRun = true
							}
						}
						if !haveRun {
							t.Errorf("%s: traced scan recorded no scan.run span (%d spans)", label, len(spans))
						}
					}
				}
			}
		})
	}
}

// TestObjectiveStrategyEquivalence pins the objective soundness contract
// down differentially: under an attacker objective the attack flags are
// part of the recorded outcome, and the fully accelerated snapshot scan
// must still archive byte-identically to the plain rerun reference. The PC
// space is the sharp case — its classes are only outcome-equivalent, so
// a predicate peeking at non-invariant observables would diverge here.
func TestObjectiveStrategyEquivalence(t *testing.T) {
	prog := equivProgram(t, "bin_sem2")
	for _, space := range []SpaceKind{SpacePC, SpaceSkip, SpaceBurst2} {
		for _, obj := range ObjectiveNames() {
			rerun, err := Scan(prog, ScanOptions{Space: space, Strategy: StrategyRerun, Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			ref := scanBytes(t, rerun)
			label := fmt.Sprintf("%s/%s/snapshot", space, obj)
			got, err := Scan(prog, ScanOptions{Space: space, Predecode: true, Objective: obj})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameOutcomes(t, label, rerun, got)
			if !bytes.Equal(scanBytes(t, got), ref) {
				t.Errorf("%s: archived reports are not byte-identical", label)
			}
			// The objective changes recorded outcomes, so it must change
			// the campaign identity (unlike the accelerator knobs).
			plain, err := CampaignIdentity(prog, ScanOptions{Space: space})
			if err != nil {
				t.Fatal(err)
			}
			if rerun.Identity == plain {
				t.Errorf("%s/%s: objective campaigns must not share the plain identity", space, obj)
			}
		}
	}
}

// TestInterruptResumeEquivalence interrupts a scan at ~50%, resumes it
// from its checkpoint under a different strategy, and requires the
// resumed result to match an uninterrupted scan bit-for-bit — the
// checkpoint is strategy-agnostic by design.
func TestInterruptResumeEquivalence(t *testing.T) {
	for _, name := range progs.Names() {
		t.Run(name, func(t *testing.T) {
			testInterruptResume(t, equivProgram(t, name), ScanOptions{}, StrategyRerun)
		})
	}
}

// TestInterruptResumeSpaces is the interrupt+resume leg across all six
// fault spaces: a snapshot-strategy scan interrupted mid-run and resumed
// under rerun — so the resume runs the reference strategy on an
// arbitrary leftover class subset — must be byte-identical to an
// uninterrupted scan. The dos objective on the skip space checks the
// attack flag survives the checkpoint round trip.
func TestInterruptResumeSpaces(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ScanOptions
	}{
		{"memory", ScanOptions{Space: SpaceMemory}},
		{"registers", ScanOptions{Space: SpaceRegisters}},
		{"skip+dos", ScanOptions{Space: SpaceSkip, Objective: "dos"}},
		{"pc", ScanOptions{Space: SpacePC}},
		{"burst2", ScanOptions{Space: SpaceBurst2}},
		{"burst4", ScanOptions{Space: SpaceBurst4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testInterruptResume(t, equivProgram(t, "bin_sem2"), tc.opts, StrategyRerun)
		})
	}
}

// TestInterruptResumeAttackSpaces is the same invariant under the
// attack-style fault models: a skip campaign under the dos objective
// (attack-flagged outcome bytes must survive the checkpoint round trip)
// and a plain burst campaign.
func TestInterruptResumeAttackSpaces(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ScanOptions
	}{
		{"skip+dos", ScanOptions{Space: SpaceSkip, Objective: "dos"}},
		{"burst2", ScanOptions{Space: SpaceBurst2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testInterruptResume(t, equivProgram(t, "bin_sem2"), tc.opts, StrategyRerun)
		})
	}
}

func testInterruptResume(t *testing.T, prog *Program, opts ScanOptions, resume Strategy) {
	t.Helper()
	full, err := Scan(prog, opts)
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(t.TempDir(), "scan.ckpt")
	intCh := make(chan struct{})
	var once sync.Once
	popts := opts
	popts.Workers = 1
	popts.Checkpoint = ck
	popts.ProgressInterval = -1
	popts.OnProgress = func(p Progress) {
		if p.Done >= p.Total/2 && p.Done > 0 {
			once.Do(func() { close(intCh) })
		}
	}
	popts.Interrupt = intCh
	partial, err := Scan(prog, popts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted scan: err = %v, want ErrInterrupted", err)
	}
	if partial == nil {
		t.Fatal("interrupted scan must return its partial result")
	}
	// Resume under a different (or the caller's chosen) strategy: the
	// checkpoint must not care what executed the first half.
	ropts := opts
	ropts.Checkpoint = ck
	ropts.Resume = true
	ropts.Strategy = resume
	resumed, err := Scan(prog, ropts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcomes(t, "interrupted+resumed vs uninterrupted", full, resumed)
	if resumed.Identity != full.Identity {
		t.Error("resumed scan must keep the campaign identity")
	}
	if !bytes.Equal(scanBytes(t, resumed), scanBytes(t, full)) {
		t.Error("resumed archive is not byte-identical to an uninterrupted scan's")
	}
}
