package campaign

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/progs"
	"faultspace/internal/pruning"
	"faultspace/internal/telemetry"
)

// convergentTarget is built so many distinct faults funnel into few
// continuations: every working value is redefined mid-run, so most
// faulted states collapse back onto the golden state (or one of a few
// corrupted-output variants of it) — exactly the sharing the memo cache
// exploits. The nop padding makes the run long enough for probe
// boundaries at small intervals.
func convergentTarget() Target {
	serial := int32(machine.PortSerial)
	prog := []isa.Instruction{
		{Op: isa.OpLb, Rd: 1, Rs: 0, Imm: 0},       // cycle 1: use — faults escape to serial
		{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: serial},  // cycle 2
		{Op: isa.OpLb, Rd: 2, Rs: 0, Imm: 1},       // cycle 3: use — faults masked below
		{Op: isa.OpAndi, Rd: 2, Rs: 2, Imm: 0},     // cycle 4
		{Op: isa.OpSb, Rt: 2, Rs: 0, Imm: serial},  // cycle 5
		{Op: isa.OpSbi, Rs: 0, Imm: 0, Imm2: 0x3c}, // cycle 6: redefine byte 0
		{Op: isa.OpSbi, Rs: 0, Imm: 1, Imm2: 0x2a}, // cycle 7: redefine byte 1
		{Op: isa.OpLi, Rd: 1, Imm: 0},              // cycle 8: redefine registers
		{Op: isa.OpLi, Rd: 2, Imm: 0},              // cycle 9
		{Op: isa.OpNop},                            // cycles 10..13: converged stretch
		{Op: isa.OpNop},                            //
		{Op: isa.OpNop},                            //
		{Op: isa.OpNop},                            //
		{Op: isa.OpLb, Rd: 3, Rs: 0, Imm: 0},       // cycle 14: late use
		{Op: isa.OpSb, Rt: 3, Rs: 0, Imm: serial},  // cycle 15
		{Op: isa.OpHalt},                           // cycle 16
	}
	return Target{
		Name:  "convergent",
		Code:  prog,
		Image: []byte{0xa5, 0x11, 0, 0},
		Mach:  machine.Config{RAMSize: 4},
	}
}

// allSpaces lists every fault-space kind.
var allSpaces = []pruning.SpaceKind{pruning.SpaceMemory, pruning.SpaceRegisters,
	pruning.SpaceSkip, pruning.SpacePC, pruning.SpaceBurst2, pruning.SpaceBurst4}

// TestMemoOracleRandomCoordinates is the memoization analogue of
// TestRandomCoordinateOracle (invariant 11): outcomes produced by
// memoized snapshot scans — admission forced on, predecode on, in every
// fault space — must equal a fresh, uncached, plain-decoder single
// experiment at random raw coordinates of the fault space.
func TestMemoOracleRandomCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	targets := []Target{hiTarget(t), convergentTarget()}
	for trial := 0; trial < 6; trial++ {
		targets = append(targets, randomTarget(rng, 8+rng.Intn(12)))
	}
	cfg := Config{}.withDefaults()
	for ti, target := range targets {
		for _, kind := range allSpaces {
			golden, fs, err := target.PrepareSpace(kind, 1<<12)
			if err != nil {
				t.Fatalf("target %d %s: prepare: %v", ti, kind, err)
			}
			// Interval 1 maximizes probe boundaries (and therefore cache
			// traffic) on these short programs.
			res, err := FullScan(target, golden, fs, Config{
				memoEvery: 1, memoForce: memoAdmitted, Predecode: true,
			})
			if err != nil {
				t.Fatalf("target %d %s: memo scan: %v", ti, kind, err)
			}
			for n := 0; n < 40; n++ {
				slot := 1 + uint64(rng.Int63n(int64(fs.Cycles)))
				bit := uint64(rng.Int63n(int64(fs.Bits)))
				got, err := RunSingleSpace(target, golden, cfg, fs.Kind, slot, bit)
				if err != nil {
					t.Fatal(err)
				}
				ci, inClass, err := fs.Locate(slot, bit)
				if err != nil {
					t.Fatal(err)
				}
				want := OutcomeNoEffect
				if inClass {
					want = res.Outcomes[ci]
				}
				if got != want {
					t.Fatalf("target %d (%s, %s) coordinate (%d, %d): fresh=%v memoized=%v (inClass=%v)",
						ti, target.Name, kind, slot, bit, got, want, inClass)
				}
			}
		}
	}
}

// TestMemoCacheHits proves the cache actually fires — equivalence alone
// would hold trivially if no experiment ever hit an entry — and that a
// scan's telemetry accounts for it. The rerun reference must stay plain:
// no probes, no entries, no memo instruments.
func TestMemoCacheHits(t *testing.T) {
	target := convergentTarget()
	golden, fs, err := target.Prepare(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cache := NewMemoCache()
	res, err := FullScan(target, golden, fs, Config{
		memoEvery: 2, memoForce: memoAdmitted, Workers: 1,
		MemoCache: cache, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) == 0 {
		t.Fatal("empty scan")
	}
	snap := reg.Snapshot()
	hits, misses := snap.Counters["memo.hits"], snap.Counters["memo.misses"]
	if hits == 0 {
		t.Errorf("memo.hits = 0 (misses %d, %d entries) — cache never fired", misses, cache.Len())
	}
	if misses == 0 {
		t.Error("memo.misses = 0 — probes never recorded marks")
	}
	if snap.Counters["memo.saved_cycles"] < hits {
		t.Errorf("memo.saved_cycles = %d for %d hits — every hit skips at least one cycle",
			snap.Counters["memo.saved_cycles"], hits)
	}
	if cache.Len() == 0 {
		t.Error("cache stayed empty")
	}
	if snap.Gauges["memo.entries"] != int64(cache.Len()) {
		t.Errorf("memo.entries gauge = %d, want %d", snap.Gauges["memo.entries"], cache.Len())
	}

	reg = telemetry.New()
	cache = NewMemoCache()
	if _, err := FullScan(target, golden, fs, Config{
		Strategy: StrategyRerun, memoEvery: 2, memoForce: memoAdmitted,
		MemoCache: cache, Telemetry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, "memo.") {
			t.Errorf("rerun scan registered %s — the reference must not memoize", name)
		}
	}
	if cache.Len() != 0 {
		t.Errorf("rerun scan filled the shared cache with %d entries", cache.Len())
	}
}

// TestMemoBreakEvenCutoff pins the per-probe break-even cutoff: on a
// target whose cycle budget sits below the hash-cost break-even
// threshold (large RAM, tight TimeoutFactor), every probe is skipped —
// the cache never fires and never fills — while the outcomes still
// match an unmemoized scan. Here breakEven = 2×(96+4096)/
// memoHashBytesPerCycle = 524 cycles but the budget is only golden (16)
// + slack (256) cycles.
func TestMemoBreakEvenCutoff(t *testing.T) {
	target := convergentTarget()
	target.Name = "convergent-big"
	target.Mach.RAMSize = 4096
	golden, fs, err := target.Prepare(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FullScan(target, golden, fs, Config{TimeoutFactor: 1, Strategy: StrategyRerun})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	cache := NewMemoCache()
	res, err := FullScan(target, golden, fs, Config{
		memoEvery: 1, memoForce: memoAdmitted, TimeoutFactor: 1,
		MemoCache: cache, Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ci := range ref.Outcomes {
		if res.Outcomes[ci] != ref.Outcomes[ci] {
			t.Fatalf("class %d: cut off=%v plain=%v", ci, res.Outcomes[ci], ref.Outcomes[ci])
		}
	}
	snap := reg.Snapshot()
	if h, m := snap.Counters["memo.hits"], snap.Counters["memo.misses"]; h+m != 0 {
		t.Errorf("%d hits + %d misses — cutoff let unpayable probes through", h, m)
	}
	if snap.Counters["memo.gated"] == 0 {
		t.Error("memo.gated = 0 — cutoff never exercised")
	}
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries, want 0", cache.Len())
	}
}

// registryTarget builds a bundled benchmark at registry default size.
func registryTarget(t *testing.T, name string, hardened bool) Target {
	t.Helper()
	spec, err := progs.Resolve(name, progs.Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	build := spec.Baseline
	if hardened {
		build = spec.Hardened
	}
	p, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return Target{
		Name:  p.Name,
		Code:  p.Code,
		Image: p.Image,
		Mach:  machine.Config{RAMSize: p.RAMSize, TimerPeriod: p.TimerPeriod, TimerVector: p.TimerVector},
	}
}

// TestMemoAdmission pins the admission rule on bin_sem2 at registry
// default size: the SUM+DMR variant, whose corrected faults rejoin a few
// continuations, is admitted; the baseline, whose short faulted runs
// rarely meet, is refused. The campaign runs as three RunClasses calls
// on one shared cache — a cluster worker's leased units — with the
// warm-up straddling the first two: exactly one decision is made, it
// holds for the third call, and a refused campaign stops probing.
func TestMemoAdmission(t *testing.T) {
	for _, tc := range []struct {
		hardened bool
		want     memoDecision
	}{
		{false, memoRefused},
		{true, memoAdmitted},
	} {
		target := registryTarget(t, "bin_sem2", tc.hardened)
		golden, fs, err := target.Prepare(1 << 22)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.New()
		cache := NewMemoCache()
		cfg := Config{Workers: 2, Predecode: true, MemoCache: cache, Telemetry: reg}
		units := [][2]int{{0, memoWarmup / 2}, {memoWarmup / 2, memoWarmup + 128}, {memoWarmup + 128, 4 * memoWarmup}}
		var probes uint64
		for i, u := range units {
			classes := make([]int, 0, u[1]-u[0])
			for ci := u[0]; ci < u[1]; ci++ {
				classes = append(classes, ci)
			}
			if _, err := RunClasses(target, golden, fs, cfg, classes); err != nil {
				t.Fatalf("%s unit %d: %v", target.Name, i, err)
			}
			snap := reg.Snapshot()
			decided := snap.Counters["memo.admitted"] + snap.Counters["memo.refused"]
			p := snap.Counters["memo.hits"] + snap.Counters["memo.misses"]
			switch i {
			case 0:
				if decided != 0 || cache.state() != memoUndecided {
					t.Fatalf("%s: decided after %d experiments, before the warm-up ended", target.Name, u[1])
				}
			default:
				if decided != 1 {
					t.Fatalf("%s unit %d: %d admission decisions, want exactly 1", target.Name, i, decided)
				}
				if got := cache.state(); got != tc.want {
					t.Fatalf("%s unit %d: decision %d, want %d (saved %d cycles / hashed %d bytes)",
						target.Name, i, got, tc.want, cache.savedCycles.Load(), cache.hashedBytes.Load())
				}
			}
			if i == 2 && tc.want == memoRefused && p != probes {
				t.Errorf("%s: %d probes after the refusal, want none", target.Name, p-probes)
			}
			if i == 2 && tc.want == memoAdmitted && snap.Counters["memo.hits"] == 0 {
				t.Errorf("%s: admitted campaign never hit", target.Name)
			}
			probes = p
		}
	}
}

// TestMemoSharedCacheConcurrentScans exercises one MemoCache (and one
// MachinePool) shared across concurrent multi-worker RunClasses calls —
// the cluster worker's configuration — and requires the merged outcomes
// to match an uncached FullScan. Run under `go test -race ./...` (the
// `make check` race gate) this doubles as the data-race proof for the
// shared cache on the multi-worker scan path.
func TestMemoSharedCacheConcurrentScans(t *testing.T) {
	target := convergentTarget()
	golden, fs, err := target.Prepare(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FullScan(target, golden, fs, Config{Strategy: StrategyRerun})
	if err != nil {
		t.Fatal(err)
	}

	cache := NewMemoCache()
	pool := NewMachinePool(target)
	cfg := Config{
		Strategy: StrategySnapshot, memoEvery: 2, Workers: 4,
		Predecode: true, MemoCache: cache, Pool: pool,
	}
	// Shard the classes into interleaved subsets and run them all
	// concurrently against the shared cache.
	const shards = 4
	parts := make([][]int, shards)
	for ci := range fs.Classes {
		parts[ci%shards] = append(parts[ci%shards], ci)
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		merged = make(map[int]Outcome, len(fs.Classes))
		firstE error
	)
	for _, part := range parts {
		wg.Add(1)
		go func(classes []int) {
			defer wg.Done()
			got, err := RunClasses(target, golden, fs, cfg, classes)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstE == nil {
					firstE = err
				}
				return
			}
			for ci, o := range got {
				merged[ci] = o
			}
		}(part)
	}
	wg.Wait()
	if firstE != nil {
		t.Fatal(firstE)
	}
	if len(merged) != len(fs.Classes) {
		t.Fatalf("merged %d outcomes, want %d", len(merged), len(fs.Classes))
	}
	for ci, o := range merged {
		if o != ref.Outcomes[ci] {
			t.Errorf("class %d: shared-cache=%v rerun=%v", ci, o, ref.Outcomes[ci])
		}
	}
}

// TestMemoCacheBindGuard pins the cross-campaign safety check: a cache
// bound to one campaign (identity + budget) must reject scans of a
// different target or a different timeout budget — entries are only
// transferable between experiments with identical semantics.
func TestMemoCacheBindGuard(t *testing.T) {
	target := convergentTarget()
	golden, fs, err := target.Prepare(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMemoCache()
	if _, err := FullScan(target, golden, fs, Config{MemoCache: cache}); err != nil {
		t.Fatal(err)
	}
	// Same campaign again: entries survive and the scan still works.
	if _, err := FullScan(target, golden, fs, Config{MemoCache: cache}); err != nil {
		t.Fatalf("rebinding the same campaign must succeed: %v", err)
	}
	// Different budget → different continuation semantics → rejected.
	if _, err := FullScan(target, golden, fs, Config{MemoCache: cache, TimeoutFactor: 8}); err == nil {
		t.Error("cache bound to one budget accepted a different TimeoutFactor")
	}
	// Different target → different identity → rejected.
	other := hiTarget(t)
	g2, f2, err := other.Prepare(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FullScan(other, g2, f2, Config{MemoCache: cache}); err == nil {
		t.Error("cache bound to one campaign accepted a different target")
	} else if !strings.Contains(err.Error(), "memo cache") {
		t.Errorf("unexpected bind error: %v", err)
	}
}

// TestMemoDisabledAllocFree is the memo half of the zero-overhead
// invariant (the telemetry half lives in internal/telemetry): with
// memoization off (mr == nil, the rerun reference) or refused by the
// campaign's admission decision, the per-experiment tail — run to
// termination plus classification — must not allocate at all.
func TestMemoDisabledAllocFree(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	m, err := target.newMachine()
	if err != nil {
		t.Fatal(err)
	}
	reset := m.Snapshot()
	budget := Config{}.withDefaults().timeoutBudget(golden.Cycles)
	slot, bit := fs.Classes[0].Slot(), fs.Classes[0].Bit
	refused := NewMemoCache()
	refused.force(memoRefused)
	for _, mr := range []*memoRun{nil, newMemoRun(refused, nil)} {
		run := func() {
			m.Restore(reset)
			if slot > 1 {
				m.Run(slot - 1)
			}
			if err := m.FlipBit(bit); err != nil {
				t.Fatal(err)
			}
			if o := memoTail(m, golden, budget, 1, nil, mr); int(o) >= NumOutcomes {
				t.Fatalf("bad outcome %d", o)
			}
		}
		run() // warm up lazily-allocated machine state
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("memo off (refused=%t): experiment tail allocates %.1f times per run, want 0", mr != nil, allocs)
		}
	}
}
