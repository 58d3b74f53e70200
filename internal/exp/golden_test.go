package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vpp/internal/sim"
	"vpp/internal/simtest"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldens are the determinism goldens: each workload's schedule
// fingerprint is pinned by testdata/<name>_trace.golden. The shapes are
// complementary, so a regression confined to one path fails at least
// one of them:
//   - schedule: two Cache Kernels on a two-MPM machine running demand
//     faults, traps, signals, alarms and short-lived threads — the
//     golden generated on the unoptimized linear-scan scheduler;
//   - boot_echo: a single-MPM boot and a memory-based-messaging echo
//     (WaitSignal queue drain, reverse-TLB delivery, SignalReturn);
//   - recovery: a scripted Cache Kernel crash, guardian detection, SRM
//     re-boot, kernel reload and workload completion;
//   - orchestration: the canned ckctl fleet, the rolling upgrade's
//     serial drain and every blackout window, with cross-module control
//     traffic;
//   - simtest: generated cksim seed 17 (two MPMs, a mixed op stream and
//     an injected signal fault), covering the scenario generator, the
//     chaos injector and the cross-module harness.
var goldens = []struct {
	name string
	run  workload
}{
	{"schedule", RunDeterminismWorkload},
	{"boot_echo", RunBootEchoWorkload},
	{"recovery", func(trace func(string, int, uint64)) (uint64, uint64, error) {
		r, err := RunRecoveryWorkload(trace)
		return r.FinalClock, r.Steps, err
	}},
	{"orchestration", func(trace func(string, int, uint64)) (uint64, uint64, error) {
		r, err := RunOrchestrationWorkload(trace)
		return r.FinalClock, r.Steps, err
	}},
	{"simtest", simtest.SeedWorkload(17)},
}

// workload is a golden workload: it runs to completion, reporting every
// coroutine dispatch to trace, and returns the final virtual clock and
// schedule step count.
type workload func(trace func(name string, id int, at uint64)) (finalClock, steps uint64, err error)

// TestTraceGoldens runs each golden workload twice, asserts both runs
// are byte-identical, and compares their fingerprint against the golden
// file. One golden therefore pins both determinism (same inputs, same
// schedule) and the schedule itself. Any host-side change that perturbs
// virtual time or scheduling order fails it.
func TestTraceGoldens(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			first, err := scheduleFingerprint(g.run)
			if err != nil {
				t.Fatal(err)
			}
			second, err := scheduleFingerprint(g.run)
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Fatalf("back-to-back runs diverge:\n%s\nvs\n%s", first, second)
			}

			golden := filepath.Join("testdata", g.name+"_trace.golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(first), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if string(want) != first {
				t.Fatalf("schedule trace diverged from golden:\ngot:\n%s\nwant:\n%s", first, string(want))
			}
		})
	}
}

// scheduleFingerprint executes a workload and renders its schedule
// fingerprint: the sim.TraceHash of its dispatch trace plus the
// dispatch, step and final-clock counts.
func scheduleFingerprint(run workload) (string, error) {
	var h sim.TraceHash
	cycles, steps, err := run(h.Add)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("fnv64a %016x\ndispatches %d\nsteps %d\nfinal_clock %d\n",
		h.Sum64(), h.Count(), steps, cycles), nil
}
