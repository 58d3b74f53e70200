package hw

import (
	"fmt"
	"sync"
	"testing"
)

// cowFill writes a recognizable per-frame pattern into nframes frames.
func cowFill(m *PhysMem, nframes uint32) {
	for pfn := uint32(0); pfn < nframes; pfn++ {
		for off := uint32(0); off < PageSize; off += 64 {
			m.Write32(pfn*PageSize+off, 0xA000_0000|pfn<<12|off)
		}
	}
}

// TestCowForkStress shares one frozen image across 32 concurrently
// mutating forks. Each fork dirties a disjoint private window plus a hot
// window every fork hits; the oracles are page-level isolation (a fork
// sees exactly its own writes and the image's bytes everywhere else),
// exact per-fork sharing counts, and a byte-identical parent afterward.
// Runs under the tier-1 -race sweep: the shared frames are only ever
// read after Freeze, every write lands in a private copy.
func TestCowForkStress(t *testing.T) {
	const (
		forks     = 32
		imgFrames = 256 // frames with parent contents
		hotPages  = 8   // dirtied by every fork
		privPages = 4   // dirtied by exactly one fork
		privBase  = 64  // private windows start here, fork i owns [privBase+4i, privBase+4i+4)
		untouched = 48  // a frame no fork writes
	)
	parent := NewPhysMem(1 << 21) // 512 frames
	cowFill(parent, imgFrames)
	im := parent.Freeze()
	if got := parent.SharedPages; got != imgFrames {
		t.Fatalf("freeze shared %d frames, want %d", got, imgFrames)
	}
	parentBefore := make([][PageSize]byte, imgFrames)
	for pfn := uint32(0); pfn < imgFrames; pfn++ {
		parentBefore[pfn] = *parent.peek(pfn)
	}

	mems := make([]*PhysMem, forks)
	for i := range mems {
		mems[i] = im.NewPhysMem()
	}

	var wg sync.WaitGroup
	errs := make([]error, forks)
	for i := 0; i < forks; i++ {
		i, m := i, mems[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = func() error {
				dirty := map[uint32]bool{}
				for p := uint32(0); p < hotPages; p++ { // overlapping window
					m.Write32(p*PageSize+uint32(i)*8, 0xF0_0000|uint32(i))
					dirty[p] = true
				}
				for p := 0; p < privPages; p++ { // disjoint window
					pfn := uint32(privBase + i*privPages + p)
					m.Write32(pfn*PageSize, 0xBEEF_0000|uint32(i)<<8|uint32(p))
					dirty[pfn] = true
				}
				if want := uint64(len(dirty)); m.CopiedPages != want {
					return fmt.Errorf("fork %d: copied %d, want %d", i, m.CopiedPages, want)
				}
				if want := uint64(imgFrames - len(dirty)); m.SharedPages != want {
					return fmt.Errorf("fork %d: %d frames still shared, want %d", i, m.SharedPages, want)
				}
				// Own writes visible, everything else still the image's.
				for p := uint32(0); p < hotPages; p++ {
					if v := m.Read32(p*PageSize + uint32(i)*8); v != 0xF0_0000|uint32(i) {
						return fmt.Errorf("fork %d: hot page %d reads %#x", i, p, v)
					}
				}
				for p := 0; p < privPages; p++ {
					pfn := uint32(privBase + i*privPages + p)
					if v := m.Read32(pfn * PageSize); v != 0xBEEF_0000|uint32(i)<<8|uint32(p) {
						return fmt.Errorf("fork %d: private page %d reads %#x", i, pfn, v)
					}
				}
				// A sibling's private window and an untouched frame read as
				// the image wrote them — no cross-fork bleed.
				sib := uint32(privBase + ((i+1)%forks)*privPages)
				for _, pfn := range []uint32{sib, untouched} {
					if v := m.Read32(pfn*PageSize + 64); v != 0xA000_0000|pfn<<12|64 {
						return fmt.Errorf("fork %d: frame %d reads %#x, not image bytes", i, pfn, v)
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The parent and the image never saw any fork's writes.
	for pfn := uint32(0); pfn < imgFrames; pfn++ {
		if *parent.peek(pfn) != parentBefore[pfn] {
			t.Fatalf("parent frame %d changed across forks", pfn)
		}
		if *im.PageBytes(pfn) != parentBefore[pfn] {
			t.Fatalf("image frame %d changed across forks", pfn)
		}
	}
	// The parent is still fully shared: its own frames were never written.
	if parent.SharedPages != imgFrames || parent.CopiedPages != 0 {
		t.Fatalf("parent has %d shared and %d copied, want %d shared and 0 copied",
			parent.SharedPages, parent.CopiedPages, imgFrames)
	}
	// Writing the parent now privatizes its frame without touching the image.
	parent.Write32(untouched*PageSize, 0xDEAD_0001)
	if *im.PageBytes(untouched) != parentBefore[untouched] {
		t.Fatal("parent write leaked into frozen image")
	}
}
