package simtest

import (
	"fmt"
	"testing"
)

// TestForkFamily runs a band of fork-family seeds serially and at four
// shards. Every oracle is armed inside RunForkScenario (fork-vs-fresh
// byte equality, COW isolation, snapshot determinism across shard
// counts); the test additionally pins that the continuation schedule
// hash is shard-count-invariant and that the fingerprint reproduces.
func TestForkFamily(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := GenerateFork(seed)
			serial := RunForkScenario(sc, 1)
			if serial.Failed() {
				t.Fatalf("serial run failed:\n%s", serial.Fingerprint())
			}
			if serial.Forks != sc.Conts {
				t.Fatalf("explored %d continuations, want %d", serial.Forks, sc.Conts)
			}
			sharded := RunForkScenario(sc, 4)
			if sharded.Failed() {
				t.Fatalf("four-shard run failed:\n%s", sharded.Fingerprint())
			}
			if serial.Fingerprint() != sharded.Fingerprint() {
				t.Fatalf("fork results depend on shard count:\nserial:\n%s\nsharded:\n%s",
					serial.Fingerprint(), sharded.Fingerprint())
			}
			if again := RunForkScenario(sc, 1); again.Fingerprint() != serial.Fingerprint() {
				t.Fatalf("fork fingerprint not reproducible:\n first:\n%s\nsecond:\n%s",
					serial.Fingerprint(), again.Fingerprint())
			}
		})
	}
}
