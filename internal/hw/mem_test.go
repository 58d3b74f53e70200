package hw

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// flatPhysMem is physical memory as it was before its frame table was
// kept in page groups: one frame pointer and one shared flag per frame,
// both tables built whole. It stays here as the executable spec the
// chunked memory must match frame for frame.
type flatPhysMem struct {
	frames                   []*[PageSize]byte
	shared                   []bool
	sharedPages, copiedPages uint64
}

// flatImage is the flat memory's frozen image.
type flatImage struct {
	frames []*[PageSize]byte
}

func newFlatPhysMem(size uint32) *flatPhysMem {
	n := size / PageSize
	return &flatPhysMem{frames: make([]*[PageSize]byte, n), shared: make([]bool, n)}
}

func (m *flatPhysMem) page(pfn uint32) *[PageSize]byte {
	f := m.frames[pfn]
	if f == nil {
		f = new([PageSize]byte)
		m.frames[pfn] = f
		return f
	}
	if m.shared[pfn] {
		c := new([PageSize]byte)
		*c = *f
		m.frames[pfn] = c
		m.shared[pfn] = false
		m.sharedPages--
		m.copiedPages++
		return c
	}
	return f
}

func (m *flatPhysMem) read32(pa uint32) uint32 {
	f := m.frames[pa>>PageShift]
	if f == nil {
		return 0
	}
	off := pa & (PageSize - 1)
	return binary.LittleEndian.Uint32(f[off : off+4])
}

func (m *flatPhysMem) write32(pa, v uint32) {
	off := pa & (PageSize - 1)
	binary.LittleEndian.PutUint32(m.page(pa >> PageShift)[off:off+4], v)
}

func (m *flatPhysMem) freeze() *flatImage {
	im := &flatImage{frames: append([]*[PageSize]byte(nil), m.frames...)}
	for i, f := range m.frames {
		if f != nil && !m.shared[i] {
			m.shared[i] = true
			m.sharedPages++
		}
	}
	return im
}

func (im *flatImage) newPhysMem() *flatPhysMem {
	m := &flatPhysMem{
		frames: append([]*[PageSize]byte(nil), im.frames...),
		shared: make([]bool, len(im.frames)),
	}
	for i, f := range m.frames {
		if f != nil {
			m.shared[i] = true
			m.sharedPages++
		}
	}
	return m
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestPhysMemChunkedMatchesFlat drives random Write32, Read32, Page,
// Freeze, FrameImage.NewPhysMem and PageBytes sequences
// on a family of memories and images forked from one another, each
// paired with the flat spec, at sizes of one frame, one page group and
// several groups, the last one partial. Every read, every frame's
// presence and contents, the frames FrameImage.Walk visits and their
// order, and each memory's SharedPages and CopiedPages must match the
// spec, and an access past the last frame must panic.
func TestPhysMemChunkedMatchesFlat(t *testing.T) {
	for _, frames := range []uint32{1, PageGroupPages, 3*PageGroupPages + 5} {
		t.Run(fmt.Sprint(frames), func(t *testing.T) {
			size := frames * PageSize
			rng := rand.New(rand.NewSource(int64(frames)))
			mems := []*PhysMem{NewPhysMem(size)}
			flats := []*flatPhysMem{newFlatPhysMem(size)}
			var ims []*FrameImage
			var flatIms []*flatImage
			// Frames: a few hot ones, so images share them and forks
			// copy them, the last one, and any.
			hot := []uint32{0, frames / 2, frames - 1}
			pfn := func() uint32 {
				if rng.Intn(2) == 0 {
					return hot[rng.Intn(len(hot))]
				}
				return uint32(rng.Intn(int(frames)))
			}
			pa := func() uint32 { return pfn()<<PageShift | uint32(rng.Intn(PageSize/4))*4 }
			check := func(op int, j int) {
				t.Helper()
				m, f := mems[j], flats[j]
				if m.SharedPages != f.sharedPages || m.CopiedPages != f.copiedPages {
					t.Fatalf("op %d, memory %d: shared %d copied %d, spec %d %d",
						op, j, m.SharedPages, m.CopiedPages, f.sharedPages, f.copiedPages)
				}
			}
			same := func(got, want *[PageSize]byte) bool {
				return got == nil && want == nil || got != nil && want != nil && *got == *want
			}
			checkAll := func(op int) {
				t.Helper()
				for j, m := range mems {
					check(op, j)
					for p := uint32(0); p < frames; p++ {
						if !same(m.peek(p), flats[j].frames[p]) {
							t.Fatalf("op %d, memory %d: frame %d differs from spec", op, j, p)
						}
					}
				}
				for j, im := range ims {
					var want, walked []uint32
					for p := uint32(0); p < frames; p++ {
						if !same(im.PageBytes(p), flatIms[j].frames[p]) {
							t.Fatalf("op %d, image %d: frame %d differs from spec", op, j, p)
						}
						if flatIms[j].frames[p] != nil {
							want = append(want, p)
						}
					}
					im.Walk(func(p uint32, f *[PageSize]byte) {
						walked = append(walked, p)
						if !same(f, flatIms[j].frames[p]) {
							t.Fatalf("op %d, image %d: Walk's frame %d differs from spec", op, j, p)
						}
					})
					if !slices.Equal(walked, want) {
						t.Fatalf("op %d, image %d: Walk visited frames %v, spec allocates %v", op, j, walked, want)
					}
				}
			}
			copied := false
			for op := 0; op < 3000; op++ {
				j := rng.Intn(len(mems))
				m, f := mems[j], flats[j]
				switch r := rng.Intn(100); {
				case r < 40:
					a, v := pa(), uint32(rng.Int63())
					m.Write32(a, v)
					f.write32(a, v)
				case r < 70:
					a := pa()
					if got, want := m.Read32(a), f.read32(a); got != want {
						t.Fatalf("op %d, memory %d: Read32(%#x) = %#x, spec %#x", op, j, a, got, want)
					}
				case r < 80:
					p, off, v := pfn(), rng.Intn(PageSize), byte(rng.Intn(256))
					got, want := m.Page(p), f.page(p)
					if *got != *want {
						t.Fatalf("op %d, memory %d: Page(%d) contents differ from spec", op, j, p)
					}
					got[off], want[off] = v, v
				case r < 85:
					if p := pfn(); !same(m.peek(p), f.frames[p]) {
						t.Fatalf("op %d, memory %d: frame %d differs from spec", op, j, p)
					}
				case r < 90 && len(ims) > 0:
					k, p := rng.Intn(len(ims)), pfn()
					if !same(ims[k].PageBytes(p), flatIms[k].frames[p]) {
						t.Fatalf("op %d, image %d: PageBytes(%d) differs from spec", op, k, p)
					}
				case r < 94 && len(ims) < 8:
					ims = append(ims, m.Freeze())
					flatIms = append(flatIms, f.freeze())
				case r < 98 && len(ims) > 0 && len(mems) < 12:
					k := rng.Intn(len(ims))
					mems = append(mems, ims[k].NewPhysMem())
					flats = append(flats, flatIms[k].newPhysMem())
					j = len(mems) - 1
				}
				check(op, j)
				if op%250 == 0 {
					checkAll(op)
				}
				copied = copied || mems[j].CopiedPages > 0
			}
			checkAll(3000)
			if len(ims) == 0 || len(mems) == 1 || !copied {
				t.Fatalf("sequence froze %d images into %d memories and copied a frame: %v", len(ims), len(mems), copied)
			}
			end := frames * PageSize
			for _, c := range []struct {
				name string
				fn   func()
			}{
				{"Read32", func() { mems[0].Read32(end) }},
				{"Write32", func() { mems[0].Write32(end, 1) }},
				{"Page", func() { mems[0].Page(frames) }},
				{"FrameImage.PageBytes", func() { ims[0].PageBytes(frames) }},
			} {
				if !panics(c.fn) {
					t.Errorf("%s past the last frame did not panic", c.name)
				}
			}
		})
	}
}
