package simtest

import (
	"fmt"
	"strings"
	"testing"
)

// forkPin is one fork seed's pinned outcome: the continuation schedule
// hash, the continuations explored and the copy-on-write pages copied.
// The encoded snapshot size is not pinned; it follows the image's
// gob encoding, not the schedule.
type forkPin struct {
	hash  uint64
	forks int
	cow   uint64
}

// forkPins are `cksim -fork 8`'s values. Every continuation registers
// its threads between Run calls (Image.Fork, then Kernel.Resume), the
// path no trace golden covers, so these pin the engine's id order
// across host-side registrations.
var forkPins = map[uint64]forkPin{
	1: {0xac1bafd25a849cf8, 4, 12},
	2: {0xd79de0d324744a4a, 5, 54},
	3: {0xf5a8d08126ee45a4, 5, 65},
	4: {0x7f380d295747c15d, 3, 31},
	5: {0x10bd18b8cf995977, 2, 14},
	6: {0x818bc2e66b2b923c, 2, 6},
	8: {0x8a91485f5ce30450, 3, 70},
}

// TestForkFamily runs a band of fork-family seeds twice. Every oracle is
// armed inside RunForkScenario (fork-vs-fresh byte equality, COW
// isolation, snapshot determinism across re-boots); the test
// additionally pins each seed's schedule hash, fork count and COW copies
// and checks that the fingerprint reproduces.
func TestForkFamily(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 8} {
		seed := seed
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := GenerateFork(seed)
			first := RunForkScenario(sc, 1)
			if first.Failed() {
				t.Fatalf("run failed:\n%s", first.Fingerprint())
			}
			if first.Forks != sc.Conts {
				t.Fatalf("explored %d continuations, want %d", first.Forks, sc.Conts)
			}
			pin := forkPins[seed]
			if got := (forkPin{first.Hash, first.Forks, first.CowCopied}); got != pin {
				t.Fatalf("hash %016x forks %d cow %d, pinned %016x forks %d cow %d",
					got.hash, got.forks, got.cow, pin.hash, pin.forks, pin.cow)
			}
			if again := RunForkScenario(sc, 1); again.Fingerprint() != first.Fingerprint() {
				t.Fatalf("fork fingerprint not reproducible:\n first:\n%s\nsecond:\n%s",
					first.Fingerprint(), again.Fingerprint())
			}
		})
	}
}

// TestCowOracleCatchesMutatedImage corrupts one frame of a cached class
// image and requires the next scenario of that class to report the
// cow oracle's image mutation: the oracle compares the image with the
// digest taken when it was built, so a mutation made before the
// scenario started fails it as well as one made by its forks. The
// frame is restored before the test ends, and the class runs clean
// again.
func TestCowOracleCatchesMutatedImage(t *testing.T) {
	sc := GenerateFork(1)
	ci, err := classSnapshot(sc.Class())
	if err != nil {
		t.Fatal(err)
	}
	f := ci.im.Frames.PageBytes(forkPFN(0, 0))
	if f == nil {
		t.Fatal("class image holds no boot frame for page 0")
	}
	saved := *f
	t.Cleanup(func() { *f = saved })
	f[8] ^= 0xff
	res := RunForkScenario(sc, 1)
	found := false
	for _, fl := range res.Failures {
		if fl.Oracle == "cow" && strings.Contains(fl.Detail, "parent image mutated by forks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupted class image not reported by the cow oracle:\n%s", res.Fingerprint())
	}
	*f = saved
	if res := RunForkScenario(sc, 1); res.Failed() {
		t.Fatalf("restored class image still fails:\n%s", res.Fingerprint())
	}
}

// BenchmarkForkSeed runs fork seed 2 per op: its continuations, each
// on a fork of the class image and on a freshly booted machine, under
// every oracle. The class image is built before the timer starts, as a
// sweep's first scenario of the class builds it once.
func BenchmarkForkSeed(b *testing.B) {
	sc := GenerateFork(2)
	if _, err := classSnapshot(sc.Class()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := RunForkScenario(sc, 1); r.Failed() {
			b.Fatalf("fork seed %d failed:\n%s", sc.Seed, r.Fingerprint())
		}
	}
}
