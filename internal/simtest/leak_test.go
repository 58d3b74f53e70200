package simtest

import (
	"runtime"
	"testing"

	"vpp/internal/leakcheck"
)

// TestHarnessesCloseMachines runs one scenario of each family and
// requires the goroutine count to come back to where it started: the
// harness closes every machine it builds, so no parked service thread
// or shard worker outlives its scenario.
func TestHarnessesCloseMachines(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"ops_seed_1", func(t *testing.T) {
			if r := RunSharded(Generate(1), nil, 1); r.Failed() {
				t.Fatalf("scenario failed:\n%s", r.Fingerprint())
			}
		}},
		{"orch_seed_0_shards_2", func(t *testing.T) {
			if r := RunSharded(GenerateOrch(0), nil, 2); r.Failed() {
				t.Fatalf("scenario failed:\n%s", r.Fingerprint())
			}
		}},
		{"fork_seed_2_shards_2", func(t *testing.T) {
			if r := RunForkScenario(GenerateFork(2), 2); r.Failed() {
				t.Fatalf("scenario failed:\n%s", r.Fingerprint())
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c.run(t)
			leakcheck.Wait(t, base)
		})
	}
}
