package simtest

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"vpp/internal/snap"
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

// TestCowOracleCatchesMutatedImage changes one field of a cached class
// image at a time, a frame and two gob-encoded structures (the first
// kernel record's access array and a captured TLB entry), and requires
// the next scenario of that class to report the cow oracle's image
// mutation: the oracle compares the image's encoding with the one
// kept since the image was built, so a mutation made before the
// scenario started fails it as well as one made by its forks. Each
// field is restored before the next case, and the class runs clean
// again.
func TestCowOracleCatchesMutatedImage(t *testing.T) {
	sc := GenerateFork(1)
	ci, err := classSnapshot(sc.Class())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// mutate changes the image and returns what undoes the
		// change; the undo may run twice.
		mutate func(t *testing.T, im *snap.Image) (restore func())
	}{
		{"frame", func(t *testing.T, im *snap.Image) func() {
			f := im.Frames.PageBytes(forkPFN(0, 0))
			if f == nil {
				t.Fatal("class image holds no boot frame for page 0")
			}
			saved := *f
			f[8] ^= 0xff
			return func() { *f = saved }
		}},
		{"kernel_access", func(t *testing.T, im *snap.Image) func() {
			a := &im.CKs[0].KernelRecs[0].Access
			saved := a[0]
			a[0] ^= 0xff
			return func() { a[0] = saved }
		}},
		{"tlb_entry", func(t *testing.T, im *snap.Image) func() {
			e := &im.TLBs[0][0].Entries[0]
			saved := *e
			e.ASID ^= 0x8000
			return func() { *e = saved }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := tc.mutate(t, ci.im)
			t.Cleanup(restore)
			res := RunForkScenario(sc, 1)
			found := false
			for _, fl := range res.Failures {
				if fl.Oracle == "cow" && strings.Contains(fl.Detail, "parent image mutated by forks") {
					found = true
				}
			}
			if !found {
				t.Fatalf("mutated class image not reported by the cow oracle:\n%s", res.Fingerprint())
			}
			restore()
			if res := RunForkScenario(sc, 1); res.Failed() {
				t.Fatalf("restored class image still fails:\n%s", res.Fingerprint())
			}
		})
	}
}

// TestEncodeToMatchesEncode requires EncodeTo to write Encode's bytes,
// into a buffer that it grows for the frames and into a writer that
// cannot grow, for the class image of every fork class GenerateFork
// draws.
func TestEncodeToMatchesEncode(t *testing.T) {
	for mpms := 1; mpms <= 3; mpms++ {
		for _, pages := range []int{4, 8, 12} {
			cl := ForkClass{MPMs: mpms, CPUsPerMPM: 2, Pages: pages}
			ci, err := classSnapshot(cl)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := ci.im.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, ci.enc) {
				t.Fatalf("class %+v: Encode wrote %d bytes, the recorded encoding is %d", cl, len(enc), len(ci.enc))
			}
			var buf, plain bytes.Buffer
			for _, w := range []struct {
				name string
				w    io.Writer
				b    *bytes.Buffer
			}{{"buffer", &buf, &buf}, {"writer", struct{ io.Writer }{&plain}, &plain}} {
				if err := ci.im.EncodeTo(w.w); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(w.b.Bytes(), enc) {
					t.Fatalf("class %+v: EncodeTo into a %s wrote %d bytes, Encode %d; contents differ", cl, w.name, w.b.Len(), len(enc))
				}
			}
		}
	}
}

// TestEncodingDiffReports requires the comparison the cow and
// snapshot-determinism oracles encode into to report a flipped frame
// byte, a flipped captured field, and a recorded encoding one byte
// shorter or one byte longer than the image's, and nothing for the
// image's own encoding.
func TestEncodingDiffReports(t *testing.T) {
	m, ks, err := bootForkClass(ForkClass{MPMs: 2, CPUsPerMPM: 2, Pages: 4})
	if err != nil {
		t.Fatal(err)
	}
	im, err := snap.Take(m, ks)
	m.Close()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// change mutates the image or the recording and returns the
		// recording and what undoes the change.
		change func(t *testing.T) (want []byte, undo func())
		diff   string // in the report; "" for none
	}{
		{"same", func(t *testing.T) ([]byte, func()) { return enc, func() {} }, ""},
		{"frame_byte", func(t *testing.T) ([]byte, func()) {
			f := im.Frames.PageBytes(forkPFN(1, 3))
			if f == nil {
				t.Fatal("image holds no boot frame for mpm 1 page 3")
			}
			f[8] ^= 0xff
			return enc, func() { f[8] ^= 0xff }
		}, "differs from the recorded"},
		{"state_field", func(t *testing.T) ([]byte, func()) {
			e := &im.TLBs[0][0].Entries[0]
			e.ASID ^= 0x8000
			return enc, func() { e.ASID ^= 0x8000 }
		}, "differs from the recorded"},
		{"recording_shorter", func(t *testing.T) ([]byte, func()) { return enc[:len(enc)-1], func() {} }, "differs from the recorded"},
		{"recording_longer", func(t *testing.T) ([]byte, func()) {
			return append(enc[:len(enc):len(enc)], 0), func() {}
		}, fmt.Sprintf("ends at byte %d of the recorded %d", len(enc), len(enc)+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, undo := tc.change(t)
			diff, err := encodingDiff(im, want)
			undo()
			if err != nil {
				t.Fatal(err)
			}
			if tc.diff == "" && diff != "" || !strings.Contains(diff, tc.diff) {
				t.Fatalf("encodingDiff reported %q, want %q", diff, tc.diff)
			}
		})
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
