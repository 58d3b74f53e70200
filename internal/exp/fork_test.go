package exp

import (
	"testing"

	"vpp/internal/simtest"
	"vpp/internal/snap"
)

// TestForkEquivalenceMatrix is the replay-tier fork oracle over every
// golden workload: run from boot recording the full dispatch trace,
// then "fork" — rebuild, re-run silently to a mid-trace cut, verify the
// machine state digest matches the parent's at the cut — and check the
// forked continuation's trace is byte-identical to the golden run's
// tail. Serial and four-shard, for each of the five golden families.
func TestForkEquivalenceMatrix(t *testing.T) {
	cases := []struct {
		name string
		w    snap.CutFunc
	}{
		{"determinism", RunDeterminismWorkloadCut},
		{"boot_echo", RunBootEchoWorkloadCut},
		{"recovery", RunRecoveryTraceCut},
		{"orchestration", RunOrchestrationTraceCut},
		{"simtest_seed11", simtest.SeedWorkloadCut(11)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// One plain run records the dispatch times; the cut goes
			// strictly between two mid-trace dispatches so both halves
			// are non-empty.
			var ats []uint64
			if _, _, err := tc.w(func(name string, at uint64) { ats = append(ats, at) }, 1, 0, nil); err != nil {
				t.Fatalf("plain run: %v", err)
			}
			cut := midCut(ats)
			if cut == 0 {
				t.Fatalf("no mid-trace cut in %d dispatches", len(ats))
			}
			for _, shards := range []int{1, 4} {
				r := snap.Replay{Workload: tc.w, Shards: shards, Cut: cut}
				full, err := r.RunFull()
				if err != nil {
					t.Fatalf("shards=%d: full run: %v", shards, err)
				}
				if full.CutIndex == 0 || full.CutIndex == len(full.Trace) {
					t.Fatalf("shards=%d: cut %d not mid-trace (index %d of %d dispatches)",
						shards, r.Cut, full.CutIndex, len(full.Trace))
				}
				tail, err := r.RunFork(full.Digest)
				if err != nil {
					t.Fatalf("shards=%d: forked run: %v", shards, err)
				}
				if err := snap.TailEqual(full.Trace[full.CutIndex:], tail); err != nil {
					t.Fatalf("shards=%d: forked tail differs from golden tail: %v", shards, err)
				}
			}
		})
	}
}

// midCut picks a virtual time strictly between two dispatches near the
// middle of a trace, or 0 if every dispatch shares one instant.
func midCut(ats []uint64) uint64 {
	for off := 0; off < len(ats); off++ {
		for _, i := range []int{len(ats)/2 - off, len(ats)/2 + off} {
			if i >= 0 && i+1 < len(ats) && ats[i]+1 < ats[i+1] {
				return (ats[i] + ats[i+1]) / 2
			}
		}
	}
	return 0
}

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
