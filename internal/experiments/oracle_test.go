package experiments

import (
	"testing"

	"faultspace"
	"faultspace/internal/progs"
)

// runOracle drives the differential oracle for one space/objective pair
// and fails the test on any scan/brute-force disagreement (invariant 13).
// The scan runs the default strategy (snapshot).
func runOracle(t *testing.T, space faultspace.SpaceKind, objective string, n int) *OracleReport {
	t.Helper()
	p, err := progs.Hi().Baseline()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RandomCoordinateOracle(p, faultspace.ScanOptions{
		Space:     space,
		Objective: objective,
	}, n, 0xfa17)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coordinates != n || rep.InClass+rep.Pruned != n {
		t.Fatalf("coordinate accounting: %d checked, %d in-class + %d pruned",
			rep.Coordinates, rep.InClass, rep.Pruned)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("space %s: (%d, %d) inClass=%v: scan %v, oracle %v",
			space, m.Slot, m.Bit, m.InClass, m.Scan, m.Oracle)
	}
	return rep
}

func TestOracleRandomCoordinatesSkip(t *testing.T) {
	rep := runOracle(t, faultspace.SpaceSkip, "", 200)
	// The skip space prunes nops, fallen-through branches and dead data
	// ops; hi must exercise both sides of the partition.
	if rep.InClass == 0 || rep.Pruned == 0 {
		t.Errorf("degenerate draw: %d in-class, %d pruned", rep.InClass, rep.Pruned)
	}
}

func TestOracleRandomCoordinatesPC(t *testing.T) {
	// The PC space groups classes that are only outcome-equivalent, so it
	// is the sharpest probe of the objective soundness contract — run it
	// under every builtin objective plus none.
	for _, obj := range append([]string{""}, faultspace.ObjectiveNames()...) {
		rep := runOracle(t, faultspace.SpacePC, obj, 200)
		if rep.InClass == 0 {
			t.Errorf("objective %q: no coordinate hit a class", obj)
		}
	}
}

func TestOracleRandomCoordinatesBurst(t *testing.T) {
	for _, space := range []faultspace.SpaceKind{faultspace.SpaceBurst2, faultspace.SpaceBurst4} {
		rep := runOracle(t, space, "corrupt", 200)
		if rep.InClass == 0 || rep.Pruned == 0 {
			t.Errorf("%s: degenerate draw: %d in-class, %d pruned", space, rep.InClass, rep.Pruned)
		}
	}
}
