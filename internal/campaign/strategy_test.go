package campaign

import (
	"errors"
	"math/rand"
	"testing"

	"faultspace/internal/isa"
	"faultspace/internal/machine"
	"faultspace/internal/telemetry"
)

// edgeTarget is built so its fault space exercises the scan feeder's
// corners: the very first instruction reads preloaded RAM (classes at
// slot 1, i.e. injection at cycle 0, before the pioneer has run at all),
// and reads continue until right before the halt (a class at the maximal
// slot).
func edgeTarget() Target {
	serial := int32(machine.PortSerial)
	prog := []isa.Instruction{
		{Op: isa.OpLb, Rd: 1, Rs: 0, Imm: 0},       // cycle 1: use of image byte 0
		{Op: isa.OpSb, Rt: 1, Rs: 0, Imm: serial},  // cycle 2
		{Op: isa.OpSbi, Rs: 0, Imm: 1, Imm2: 0x5a}, // cycle 3: def byte 1
		{Op: isa.OpNop},                           // cycle 4
		{Op: isa.OpNop},                           // cycle 5
		{Op: isa.OpLb, Rd: 2, Rs: 0, Imm: 1},      // cycle 6: use of byte 1
		{Op: isa.OpSb, Rt: 2, Rs: 0, Imm: serial}, // cycle 7
		{Op: isa.OpNop},                           // cycle 8
		{Op: isa.OpLb, Rd: 3, Rs: 0, Imm: 0},      // cycle 9: use right before halt
		{Op: isa.OpSb, Rt: 3, Rs: 0, Imm: serial}, // cycle 10
		{Op: isa.OpHalt},                          // cycle 11
	}
	return Target{
		Name:  "edge",
		Code:  prog,
		Image: []byte{0xa5, 0, 0, 0},
		Mach:  machine.Config{RAMSize: 4},
	}
}

// TestSnapshotEdgeCases pins the snapshot strategy's corner cases
// against rerun: injection at cycle 0 (slot 1, served from the pioneer's
// reset state) and injection at the maximal slot, with and without memo
// probing at every cycle, on a fixed program where the slots are known.
func TestSnapshotEdgeCases(t *testing.T) {
	target := edgeTarget()
	golden, fs, err := target.Prepare(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Classes) == 0 {
		t.Fatal("edge target has an empty fault space")
	}
	var maxSlot uint64
	haveSlot1 := false
	for _, c := range fs.Classes {
		slot := c.Slot()
		if slot == 1 {
			haveSlot1 = true
		}
		if slot > maxSlot {
			maxSlot = slot
		}
	}
	if !haveSlot1 {
		t.Error("want a class at slot 1 (injection at cycle 0)")
	}
	if maxSlot != golden.Cycles-2 {
		// The final instructions are `sb` (writes only) and `halt`, so the
		// last read — the maximal possible slot — is two cycles earlier.
		t.Errorf("max slot = %d, want %d", maxSlot, golden.Cycles-2)
	}

	rerun, err := FullScan(target, golden, fs, Config{Strategy: StrategyRerun})
	if err != nil {
		t.Fatal(err)
	}
	for _, memo := range []bool{false, true} {
		snap, err := FullScan(target, golden, fs, Config{Strategy: StrategySnapshot, Memo: memo, memoEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rerun.Outcomes {
			if snap.Outcomes[i] != rerun.Outcomes[i] {
				t.Errorf("memo=%t class %d (slot %d): snapshot=%v rerun=%v",
					memo, i, fs.Classes[i].Slot(), snap.Outcomes[i], rerun.Outcomes[i])
			}
		}
	}
}

// TestSnapshotMatchesRerunRandomPrograms is the randomized counterpart
// to the fixed edge cases, with memo probe spacings from 1 to beyond the
// golden runtime.
func TestSnapshotMatchesRerunRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		target := randomTarget(rng, 8+rng.Intn(12))
		golden, fs, err := target.Prepare(1 << 12)
		if err != nil {
			t.Fatalf("trial %d: prepare: %v", trial, err)
		}
		rerun, err := FullScan(target, golden, fs, Config{Strategy: StrategyRerun})
		if err != nil {
			t.Fatal(err)
		}
		every := uint64(1 + rng.Intn(int(golden.Cycles)+4))
		snap, err := FullScan(target, golden, fs, Config{Strategy: StrategySnapshot, Memo: trial%2 == 0, memoEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		for i := range rerun.Outcomes {
			if snap.Outcomes[i] != rerun.Outcomes[i] {
				t.Fatalf("trial %d memo interval %d class %d: snapshot=%v rerun=%v",
					trial, every, i, snap.Outcomes[i], rerun.Outcomes[i])
			}
		}
	}
}

func TestMemoIntervalAutoTune(t *testing.T) {
	cases := []struct {
		every  uint64
		cycles uint64
		want   uint64
	}{
		{every: 7, cycles: 1 << 20, want: 7},         // test override wins
		{every: 0, cycles: 8, want: memoMinInterval}, // short run floors
		{every: 0, cycles: 256 * 64, want: 64},       // 256 boundaries target
		{every: 0, cycles: 256 * 1000, want: 1000},   //
		{every: 0, cycles: 0, want: memoMinInterval}, // degenerate
	}
	for _, c := range cases {
		cfg := Config{memoEvery: c.every}
		if got := cfg.memoInterval(c.cycles); got != c.want {
			t.Errorf("memoInterval(every=%d, cycles=%d) = %d, want %d",
				c.every, c.cycles, got, c.want)
		}
	}
}

// TestPreClosedInterrupt: a scan whose Interrupt channel is closed
// before it starts stops with ErrInterrupted under either strategy.
func TestPreClosedInterrupt(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	intCh := make(chan struct{})
	close(intCh)
	for _, strat := range []Strategy{StrategySnapshot, StrategyRerun} {
		_, err := FullScan(target, golden, fs, Config{Strategy: strat, Interrupt: intCh})
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("%s: err = %v, want ErrInterrupted", strat, err)
		}
	}
}

// TestMachinePoolReuse checks the pool contract: recycled machines come
// back in the reset state, and scans drawing from a pool are outcome-
// identical to scans allocating fresh machines.
func TestMachinePoolReuse(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	pool := NewMachinePool(target)

	m1, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	m1.Run(5) // dirty it
	if m1.Cycles() == 0 {
		t.Fatal("setup: machine did not run")
	}
	pool.Put(m1)
	m2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Error("pool did not recycle the machine")
	}
	if m2.Cycles() != 0 || m2.Status() != machine.StatusRunning || len(m2.Serial()) != 0 {
		t.Error("recycled machine is not in the reset state")
	}
	pool.Put(m2)

	fresh, err := FullScan(target, golden, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategySnapshot, StrategyRerun} {
		// Two scans per strategy: the second definitely runs on recycled
		// machines dirtied by the first.
		for round := 0; round < 2; round++ {
			pooled, err := FullScan(target, golden, fs, Config{Strategy: strat, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			for i := range fresh.Outcomes {
				if pooled.Outcomes[i] != fresh.Outcomes[i] {
					t.Fatalf("strategy %d round %d class %d: pooled=%v fresh=%v",
						strat, round, i, pooled.Outcomes[i], fresh.Outcomes[i])
				}
			}
		}
	}
}

// TestMachinePoolCounters: an instrumented pool accounts every Get as
// either a reuse or a fresh allocation.
func TestMachinePoolCounters(t *testing.T) {
	target := hiTarget(t)
	pool := NewMachinePool(target)
	reg := telemetry.New()
	pool.Instrument(reg)
	m1, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)
	pool.Put(m2)
	if _, err := pool.Get(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("pool.alloc").Value(); got != 2 {
		t.Errorf("pool.alloc = %d, want 2", got)
	}
	if got := reg.Counter("pool.reuse").Value(); got != 1 {
		t.Errorf("pool.reuse = %d, want 1", got)
	}
	// Instrument with a nil registry detaches cleanly.
	pool.Instrument(nil)
	if _, err := pool.Get(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("pool.reuse").Value(); got != 1 {
		t.Errorf("detached pool still counted: reuse = %d, want 1", got)
	}
}

func TestMachinePoolWrongTarget(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	other := edgeTarget()
	pool := NewMachinePool(other)
	if _, err := FullScan(target, golden, fs, Config{Pool: pool}); err == nil {
		t.Fatal("scan with a foreign pool must be rejected")
	}
}

// TestRunClassesWithPool mirrors the cluster-worker usage: many
// RunClasses calls on arbitrary class subsets, one shared pool, under
// both strategies — together they must reproduce the full scan.
func TestRunClassesWithPool(t *testing.T) {
	target := hiTarget(t)
	golden, fs := prepare(t, target)
	full, err := FullScan(target, golden, fs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewMachinePool(target)
	for _, strat := range []Strategy{StrategySnapshot, StrategyRerun} {
		cfg := Config{Strategy: strat, Pool: pool, Workers: 2}
		got := make(map[int]Outcome)
		// Deliberately unordered subsets of mixed size.
		units := [][]int{{5, 1}, {0, 2, 9, 3}, {4}, {6, 7, 8, 10, 11, 12, 13, 14, 15}}
		for _, unit := range units {
			res, err := RunClasses(target, golden, fs, cfg, unit)
			if err != nil {
				t.Fatal(err)
			}
			for ci, o := range res {
				got[ci] = o
			}
		}
		if len(got) != len(full.Outcomes) {
			t.Fatalf("%s: units covered %d classes, want %d", strat, len(got), len(full.Outcomes))
		}
		for ci, o := range got {
			if o != full.Outcomes[ci] {
				t.Errorf("%s: class %d: units=%v full=%v", strat, ci, o, full.Outcomes[ci])
			}
		}
	}
}
