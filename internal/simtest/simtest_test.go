package simtest

import (
	"runtime"
	"testing"

	"vpp/internal/leakcheck"
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
// dispatch counts, final virtual clock, failures), and so does the
// shrinker's chunked probe of it.
func TestRunDeterminism(t *testing.T) {
	for _, seed := range []uint64{3, 29, 48, 61} {
		a, b := RunSeed(seed), RunSeed(seed)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("seed %d diverged:\n--- first\n%s\n--- second\n%s",
				seed, a.Fingerprint(), b.Fingerprint())
		}
		checkProbe(t, a)
	}
}

// checkProbe runs the scenario of a plain run the way the shrinker
// probes a candidate: in virtual-time chunks, each a separate
// Machine.Run, stopping at the first chunk boundary after an oracle
// fires. When the plain run passes, the probe runs to the end and must
// match it byte for byte; when it fails, the probe must fail too. The
// shrinker relies on both.
func checkProbe(t *testing.T, plain *Result) {
	t.Helper()
	p := runWith(plain.Scenario, nil, true)
	switch {
	case plain.Failed() && !p.Failed():
		t.Errorf("seed %d: the plain run fails, the probe passes:\n%s",
			plain.Scenario.Seed, plain.Fingerprint())
	case !plain.Failed() && p.Fingerprint() != plain.Fingerprint():
		t.Errorf("seed %d: the probe diverges from the plain run:\n--- plain\n%s--- probe\n%s",
			plain.Scenario.Seed, plain.Fingerprint(), p.Fingerprint())
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

// TestDecodeReplayRejectsBadTopology edits a recorded replay file into
// topologies the harness cannot build: running any of them would panic
// inside hw.NewMachine or ck.New, so DecodeReplay must refuse each with
// an error. The recorded file itself still decodes (and
// TestReplayRoundTrip reproduces one).
func TestDecodeReplayRejectsBadTopology(t *testing.T) {
	cases := []struct {
		name string
		edit func(sc *Scenario)
	}{
		{"mpms_0", func(sc *Scenario) { sc.MPMs = 0 }},
		{"mpms_-1", func(sc *Scenario) { sc.MPMs = -1 }},
		{"cpus_0", func(sc *Scenario) { sc.CPUsPerMPM = 0 }},
		{"threads_-5", func(sc *Scenario) { sc.ThreadSlots = -5 }},
	}
	recorded := &Result{Scenario: Generate(3)}
	b, err := EncodeReplay(recorded)
	if err != nil {
		t.Fatalf("EncodeReplay: %v", err)
	}
	if rp, err := DecodeReplay(b); err != nil || !scenarioEqual(rp.Scenario, recorded.Scenario) {
		t.Fatalf("recorded replay: %v", err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := *recorded
			c.edit(&bad.Scenario)
			b, err := EncodeReplay(&bad)
			if err != nil {
				t.Fatalf("EncodeReplay: %v", err)
			}
			if _, err := DecodeReplay(b); err == nil {
				t.Fatalf("DecodeReplay accepted MPMs=%d CPUsPerMPM=%d ThreadSlots=%d",
					bad.Scenario.MPMs, bad.Scenario.CPUsPerMPM, bad.Scenario.ThreadSlots)
			}
		})
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

// TestCoroutinePanicIsAFailure pins how the harness records a
// coroutine panic, on seed 446: its scenario still hits the Cache
// Kernel's dispatch race ("ck: dispatch of running thread"). The panic
// must come back as the run's one failure, oracle "panic", naming the
// coroutine and the value, with the machine closed behind it, and the
// shrinker and a replay must reproduce it byte for byte. When the race
// is fixed this seed passes and the test has to move to a scenario
// that still panics.
func TestCoroutinePanicIsAFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	res := RunSeed(446)
	want := Failure{Oracle: "panic", Detail: "drv/main: ck: dispatch of running thread thread#4.g1 (state=1)"}
	if len(res.Failures) != 1 || res.Failures[0] != want {
		t.Fatalf("seed 446 failures %+v, want [%+v]:\n%s", res.Failures, want, res.Fingerprint())
	}
	leakcheck.Wait(t, base)

	min, minRes := Shrink(res.Scenario, 60)
	if len(min.Ops) != 2 || len(min.Faults) != 0 {
		t.Fatalf("seed 446 shrank to %d op(s), %d fault(s), want 2 and 0", len(min.Ops), len(min.Faults))
	}
	b, err := EncodeReplay(minRes)
	if err != nil {
		t.Fatalf("EncodeReplay: %v", err)
	}
	rp, err := DecodeReplay(b)
	if err != nil {
		t.Fatalf("DecodeReplay: %v", err)
	}
	if again := Run(rp.Scenario, nil); again.Fingerprint() != minRes.Fingerprint() || again.Failures[0] != want {
		t.Fatalf("replay of the shrunk scenario differs:\n--- replay\n%s\n--- shrink\n%s", again.Fingerprint(), minRes.Fingerprint())
	}
}
