package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
//     serial drain and every blackout window, with cross-shard control
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
	{"recovery", func(trace func(string, uint64), shards int) (uint64, uint64, error) {
		r, err := RunRecoveryWorkload(trace, shards)
		return r.FinalClock, r.Steps, err
	}},
	{"orchestration", func(trace func(string, uint64), shards int) (uint64, uint64, error) {
		r, err := RunOrchestrationWorkload(trace, shards)
		return r.FinalClock, r.Steps, err
	}},
	{"simtest", simtest.SeedWorkload(17)},
}

// workload is a golden workload: it runs to completion at the given
// shard count, reporting every coroutine dispatch to trace, and returns
// the final virtual clock and schedule step count.
type workload func(trace func(name string, at uint64), shards int) (finalClock, steps uint64, err error)

// TestTraceGoldens runs each golden workload serially twice and at four
// shards once, asserts all three runs are byte-identical, and compares
// their fingerprint against the golden file. One golden therefore pins
// both determinism (same inputs, same schedule) and shard invariance
// (the parallel engine replays the serial schedule exactly). Any
// host-side change that perturbs virtual time or scheduling order fails
// it.
func TestTraceGoldens(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			first, err := scheduleFingerprint(g.run, 1)
			if err != nil {
				t.Fatal(err)
			}
			second, err := scheduleFingerprint(g.run, 1)
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Fatalf("back-to-back runs diverge:\n%s\nvs\n%s", first, second)
			}
			sharded, err := scheduleFingerprint(g.run, 4)
			if err != nil {
				t.Fatal(err)
			}
			if sharded != first {
				t.Fatalf("sharded run diverges from serial:\nserial:\n%s\nsharded:\n%s", first, sharded)
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
func scheduleFingerprint(run workload, shards int) (string, error) {
	var h sim.TraceHash
	cycles, steps, err := run(h.Add, shards)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("fnv64a %016x\ndispatches %d\nsteps %d\nfinal_clock %d\n",
		h.Sum64(), h.Count(), steps, cycles), nil
}

// TestShardInvarianceAcrossGOMAXPROCS re-runs every golden workload
// under deliberately skewed host parallelism: Shards=1 vs Shards=4,
// each with GOMAXPROCS forced to 1 and then 8. Virtual time must be
// fully insulated from the host scheduler — every combination must
// produce the same fingerprint. This is the test that catches any
// accidental dependence of the epoch barrier or the inbox merge on
// goroutine wall-clock interleaving.
func TestShardInvarianceAcrossGOMAXPROCS(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			var want string
			for _, procs := range []int{1, 8} {
				for _, shards := range []int{1, 4} {
					prev := runtime.GOMAXPROCS(procs)
					got, err := scheduleFingerprint(g.run, shards)
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d shards=%d: %v", procs, shards, err)
					}
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("GOMAXPROCS=%d shards=%d diverges:\n%s\nwant:\n%s", procs, shards, got, want)
					}
				}
			}
		})
	}
}
