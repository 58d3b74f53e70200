package exp

import "testing"

// TestMeasureFork smoke-tests the snapshot/fork benchmark and asserts
// the structural invariants that must hold regardless of host speed:
// the fork dirtied exactly the shared frames it wrote, and a fork costs
// less than the boot it replaces. The headline fork-to-boot ratio is
// recorded by `ckbench -exp fork` in BENCH_fork.json.
func TestMeasureFork(t *testing.T) {
	if testing.Short() {
		t.Skip("fork benchmark boots a 16-MPM machine")
	}
	r, err := MeasureFork()
	if err != nil {
		t.Fatal(err)
	}
	if r.CowPages == 0 || r.CowCopiedByDirty != r.CowPages {
		t.Fatalf("dirtying every image frame copied %d of %d pages", r.CowCopiedByDirty, r.CowPages)
	}
	if r.SnapshotBytes == 0 {
		t.Fatal("empty snapshot encoding")
	}
	if r.ForkToBootRatio >= 1 {
		t.Fatalf("fork (%.2f ms) not cheaper than boot (%.2f ms)", r.ForkHostMs, r.BootHostMs)
	}
}
