//go:build cksimlong

package simtest

import "testing"

// TestSeedSweep runs the first two hundred generated scenarios — the
// same sweep `cmd/cksim -seeds 200` performs — as a long-form test
// behind the cksimlong build tag (the nightly job runs 500 via the CLI;
// this keeps a reproducible slice of it in `go test` form):
//
//	go test -tags cksimlong ./internal/simtest/
//
// Each seed also runs as the shrinker's chunked probe, which must match
// a passing run byte for byte and fail with a failing one.
func TestSeedSweep(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := RunSeed(seed)
		if r.Failed() {
			t.Errorf("seed %d failed:\n%s", seed, r.Fingerprint())
		}
		checkProbe(t, r)
	}
}

// TestOrchSeedSweep is the orchestration family's long-form sweep,
// with the chunked probe on every seed, as in TestSeedSweep.
func TestOrchSeedSweep(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := Run(GenerateOrch(seed), nil)
		checkProbe(t, r)
		if r.Failed() {
			t.Errorf("orch seed %d failed:\n%s", seed, r.Fingerprint())
		}
	}
}
