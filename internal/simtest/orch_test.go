package simtest

import "testing"

// orchFixedSeeds spans the orchestration family's chaos variants: clean
// rolling upgrades, a module crash while the upgrade drains it, running
// threads killed mid-migration (including the control plane and the
// migration source), and background page-table walk errors. Every seed
// must pass every oracle: the op-stream family's plus ckctl.Verify and
// runOrch's convergence/blackout/upgrade properties.
var orchFixedSeeds = []uint64{1, 2, 3, 4, 5, 7, 9, 10, 11, 12}

func TestOrchFixedSeeds(t *testing.T) {
	seeds := orchFixedSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		sc := GenerateOrch(seed)
		r := Run(sc, nil)
		if r.Failed() {
			t.Errorf("orch seed %d failed:\n%s", seed, r.Fingerprint())
			continue
		}
		o := r.Orch
		if o == nil {
			t.Fatalf("orch seed %d: no orch stats", seed)
		}
		// Every variant's upgrade converges; the bounded queue-head wait
		// in driveUpgrade means even an upgrade scheduled into the launch
		// wave migrates most of the fleet rather than skipping it.
		if o.Migrated == 0 || o.Makespan == 0 {
			t.Errorf("orch seed %d: upgrade did no work: mig=%d makespan=%d",
				seed, o.Migrated, o.Makespan)
		}
	}
}

// TestOrchDeterminism asserts bit-reproducibility of the orchestration
// family within one process: same seed, same fingerprint, also from
// the shrinker's chunked probe.
func TestOrchDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 4, 12} {
		a := Run(GenerateOrch(seed), nil)
		b := Run(GenerateOrch(seed), nil)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("orch seed %d diverged:\n--- first\n%s\n--- second\n%s",
				seed, a.Fingerprint(), b.Fingerprint())
		}
		checkProbe(t, a)
	}
}
