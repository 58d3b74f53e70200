package simtest

import (
	"testing"
)

// fixedSeeds spans the generator's scenario families: plain unixemu
// boots, multi-MPM topologies with signal faults, crash-recovery runs,
// real-time mixes, distributed shared memory on three modules, netboot,
// and the swap/echo combination that once exposed the cross-module
// frame-grant collision. Every seed must pass every oracle.
var fixedSeeds = []uint64{3, 17, 29, 43, 44, 47, 48, 52, 58, 61}

func TestFixedSeeds(t *testing.T) {
	for _, seed := range fixedSeeds {
		r := RunSeed(seed)
		if r.Failed() {
			t.Errorf("seed %d failed:\n%s", seed, r.Fingerprint())
		}
	}
}

// TestCksimShortSeed is the per-PR continuous-integration entry point:
// one short scenario, also run under the race detector and with the
// ckinvariants build tag (which re-checks the structural invariants on
// every Cache Kernel call exit).
func TestCksimShortSeed(t *testing.T) {
	r := RunSeed(52)
	if r.Failed() {
		t.Fatalf("seed 52 failed:\n%s", r.Fingerprint())
	}
	if r.Dispatches == 0 || r.Steps == 0 {
		t.Fatalf("seed 52 ran nothing: dispatches=%d steps=%d", r.Dispatches, r.Steps)
	}
}

// TestRunDeterminism asserts bit-reproducibility: the same seed run
// twice produces byte-identical fingerprints (schedule hash, step and
// dispatch counts, final virtual clock, failures).
func TestRunDeterminism(t *testing.T) {
	for _, seed := range []uint64{3, 29, 48, 61} {
		a, b := RunSeed(seed), RunSeed(seed)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("seed %d diverged:\n--- first\n%s\n--- second\n%s",
				seed, a.Fingerprint(), b.Fingerprint())
		}
	}
}

// failingScenario returns a scenario that deterministically fails: seed
// 3's workload with the horizon cut to 2 ms, long before the unixemu
// services can finish, so the conservation and op oracles fire.
func failingScenario() Scenario {
	sc := Generate(3)
	sc.HorizonUS = 2000
	return sc
}

func TestReplayRoundTrip(t *testing.T) {
	res := Run(failingScenario(), nil)
	if !res.Failed() {
		t.Fatal("truncated scenario unexpectedly passed")
	}
	b, err := EncodeReplay(res)
	if err != nil {
		t.Fatalf("EncodeReplay: %v", err)
	}
	rp, err := DecodeReplay(b)
	if err != nil {
		t.Fatalf("DecodeReplay: %v", err)
	}
	again := Run(rp.Scenario, nil)
	if !again.Failed() {
		t.Fatal("replayed scenario did not reproduce the failure")
	}
	if again.Hash != res.Hash {
		t.Fatalf("replay schedule hash %016x != original %016x", again.Hash, res.Hash)
	}
	if len(again.Failures) != len(res.Failures) {
		t.Fatalf("replay failures %d != original %d", len(again.Failures), len(res.Failures))
	}
}

func TestShrinkKeepsFailing(t *testing.T) {
	sc := failingScenario()
	min, res := Shrink(sc, 40)
	if res == nil || !res.Failed() {
		t.Fatal("shrink lost the failure")
	}
	if len(min.Ops) > len(sc.Ops) {
		t.Fatalf("shrink grew the op stream: %d > %d", len(min.Ops), len(sc.Ops))
	}
	// The minimized scenario must re-fail when run from scratch — a
	// shrunk reproduction that only failed during shrinking is useless.
	again := Run(min, nil)
	if !again.Failed() {
		t.Fatal("minimized scenario passed on rerun")
	}
	if again.Hash != res.Hash {
		t.Fatalf("minimized rerun hash %016x != shrink result %016x", again.Hash, res.Hash)
	}
	// maxRuns bounds the probes: with a budget of 0 nothing is tried,
	// and the scenario comes back unchanged with its failing run.
	same, sameRes := Shrink(sc, 0)
	if len(same.Ops) != len(sc.Ops) || len(same.Faults) != len(sc.Faults) || !scenarioEqual(same, sc) {
		t.Fatalf("maxRuns 0 shrank the scenario to %d op(s), %d fault(s)", len(same.Ops), len(same.Faults))
	}
	if !sameRes.Failed() {
		t.Fatal("maxRuns 0 returned a passing run")
	}
}
