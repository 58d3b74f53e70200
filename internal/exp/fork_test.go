package exp

import "testing"

// TestMeasureFork smoke-tests the snapshot/fork benchmark over two
// rounds and asserts the structural invariants that must hold
// regardless of host speed: each round adds one sample to every host
// timing, the fork dirtied exactly the shared frames it wrote, and a
// fork costs less than the boot it replaces. ckbench -exp fork gates
// the fork-to-boot ratio at 10% over forkRounds rounds.
func TestMeasureFork(t *testing.T) {
	if testing.Short() {
		t.Skip("fork benchmark boots a 16-MPM machine")
	}
	r, err := MeasureFork(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, xs := range [][]float64{r.BootMs, r.SnapshotMs, r.ForkMs, r.CowNs} {
		if len(xs) != 2 {
			t.Fatalf("2 rounds gave %d samples of a host timing: %+v", len(xs), r)
		}
	}
	if r.CowPages == 0 || r.CowCopiedByDirty != r.CowPages {
		t.Fatalf("dirtying every image frame copied %d of %d pages", r.CowCopiedByDirty, r.CowPages)
	}
	if r.SnapshotBytes == 0 {
		t.Fatal("empty snapshot encoding")
	}
	if ratio := r.ForkToBootRatio(); ratio >= 1 {
		t.Fatalf("fork not cheaper than boot: ratio %.2f\n%s", ratio, r)
	}
}

// TestQuartiles pins the interpolation between closest ranks that the
// fork report's medians and quartiles use.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{nil, 0, 0, 0},
		{[]float64{7}, 7, 7, 7},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{9, 1, 5, 3, 7}, 3, 5, 7},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}
