package hw

import (
	"encoding/binary"
	"fmt"
)

// Page geometry shared with the page tables.
const (
	PageShift = 12
	PageSize  = 1 << PageShift

	// PageGroupPages is the resource-allocation granule for physical
	// memory: a page group is 128 contiguous, aligned 4 KB pages
	// (512 KB), as in the paper's kernel-object memory access array.
	PageGroupPages = 128
	PageGroupSize  = PageGroupPages * PageSize
)

// PhysMem is the machine's physical memory: lazily allocated 4 KB
// frames addressed by a 32-bit physical address. It is shared by all
// MPMs over the simulated VMEbus.
//
// The frame table is kept in page groups of PageGroupPages frames, each
// allocated on the first write to one of its frames; a nil group reads
// as all zeros. A machine pays for the groups it touches, not for its
// memory size, as the Cache Kernel's dependency records and the L2 tags
// are.
//
// Frames can be copy-on-write shared with a snapshot (FrameImage) and
// with any machines forked from it: Freeze marks every allocated frame
// shared, and the first write to a shared frame privatizes a copy, so
// a fork's writes never reach the parent, its siblings, or the image.
type PhysMem struct {
	groups []*frameGroup // nil: no frame of the group written yet
	size   uint32

	// SharedPages is the number of frames now in shared
	// (copy-before-write) state; CopiedPages counts the frames a write
	// privatized by copying. They never feed back into simulated
	// behavior.
	SharedPages, CopiedPages uint64
}

// groupFrames is one page group's frames; a nil frame has never been
// written and reads as zeros.
type groupFrames [PageGroupPages]*[PageSize]byte

// frameGroup is one page group of a memory's frame table.
type frameGroup struct {
	frames groupFrames
	// shared[i] means frames[i] is referenced by a FrameImage (and
	// possibly other machines) and must be copied before mutation.
	shared [PageGroupPages]bool
}

// FrameImage is an immutable snapshot of a physical memory's frames.
// It shares frame storage copy-on-write with the memory it was frozen
// from and with every memory created via NewPhysMem: all of them mark
// the common frames shared and copy before writing, so the image's
// bytes never change after Freeze returns.
type FrameImage struct {
	groups []*groupFrames // nil: the memory had no frame of the group
	size   uint32
}

// Freeze snapshots the memory's current contents as an immutable
// FrameImage and marks every allocated frame copy-on-write shared —
// including in the parent, whose next write to a captured frame will
// privatize a copy rather than mutate the image. Only the memory's
// allocated page groups are copied.
func (m *PhysMem) Freeze() *FrameImage {
	im := &FrameImage{groups: make([]*groupFrames, len(m.groups)), size: m.size}
	for gi, g := range m.groups {
		if g == nil {
			continue
		}
		frames := g.frames
		im.groups[gi] = &frames
		for i, f := range g.frames {
			if f != nil && !g.shared[i] {
				g.shared[i] = true
				m.SharedPages++
			}
		}
	}
	return im
}

// Size reports the image's memory size in bytes.
func (im *FrameImage) Size() uint32 { return im.size }

// Frames reports the image's frame count.
func (im *FrameImage) Frames() uint32 { return im.size / PageSize }

// PageBytes returns the image's frame for pfn, or nil for a
// never-touched (all-zero) frame. Callers must not mutate it.
func (im *FrameImage) PageBytes(pfn uint32) *[PageSize]byte {
	if pfn >= im.Frames() {
		panic(frameOutOfRange(pfn))
	}
	if frames := im.groups[pfn/PageGroupPages]; frames != nil {
		return frames[pfn%PageGroupPages]
	}
	return nil
}

// NewPhysMem creates a fresh physical memory whose initial contents are
// the image, sharing every allocated frame copy-on-write. This is the
// mutable restore path: a forked machine starts from the image and
// lazily copies a frame only on its first write. Only the image's
// allocated page groups are copied.
func (im *FrameImage) NewPhysMem() *PhysMem {
	m := &PhysMem{groups: make([]*frameGroup, len(im.groups)), size: im.size}
	for gi, frames := range im.groups {
		if frames == nil {
			continue
		}
		g := &frameGroup{frames: *frames}
		for i, f := range frames {
			if f != nil {
				g.shared[i] = true
				m.SharedPages++
			}
		}
		m.groups[gi] = g
	}
	return m
}

// NewPhysMem returns a physical memory of the given size, which must be a
// positive multiple of the page size.
func NewPhysMem(size uint32) *PhysMem {
	if size == 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("hw: bad physical memory size %#x", size))
	}
	frames := size / PageSize
	return &PhysMem{groups: make([]*frameGroup, (frames+PageGroupPages-1)/PageGroupPages), size: size}
}

// Size reports the physical memory size in bytes.
func (m *PhysMem) Size() uint32 { return m.size }

// Frames reports the number of page frames.
func (m *PhysMem) Frames() uint32 { return m.size / PageSize }

// Page returns the frame for pfn for mutation, allocating it (and its
// page group) zeroed on first touch and privatizing a copy if the frame
// is snapshot-shared. Read-only internal paths use peek instead, which
// never allocates or de-shares.
func (m *PhysMem) Page(pfn uint32) *[PageSize]byte {
	m.checkFrame(pfn)
	g := m.groups[pfn/PageGroupPages]
	if g == nil {
		g = new(frameGroup)
		m.groups[pfn/PageGroupPages] = g
	}
	i := pfn % PageGroupPages
	f := g.frames[i]
	if f == nil {
		f = new([PageSize]byte)
		g.frames[i] = f
		return f
	}
	if g.shared[i] {
		c := new([PageSize]byte)
		*c = *f
		g.frames[i] = c
		g.shared[i] = false
		m.SharedPages--
		m.CopiedPages++
		return c
	}
	return f
}

// peek returns the frame for pfn without allocating or privatizing it;
// nil means the frame has never been touched and reads as zeros.
func (m *PhysMem) peek(pfn uint32) *[PageSize]byte {
	m.checkFrame(pfn)
	if g := m.groups[pfn/PageGroupPages]; g != nil {
		return g.frames[pfn%PageGroupPages]
	}
	return nil
}

// checkFrame panics unless pfn names one of the memory's frames; the
// last page group may extend past the memory's end.
func (m *PhysMem) checkFrame(pfn uint32) {
	if pfn >= m.Frames() {
		panic(frameOutOfRange(pfn))
	}
}

// frameOutOfRange is the panic value of an access past the memory's
// last frame. It formats its message only when printed, which keeps
// the range check inside peek cheap enough to inline.
type frameOutOfRange uint32

func (pfn frameOutOfRange) Error() string {
	return fmt.Sprintf("hw: physical frame %#x out of range", uint32(pfn))
}

// Read32 reads the 32-bit little-endian word at physical address pa,
// which must be 4-byte aligned.
func (m *PhysMem) Read32(pa uint32) uint32 {
	checkAlign(pa, 4)
	f := m.peek(pa >> PageShift)
	if f == nil {
		return 0
	}
	off := pa & (PageSize - 1)
	return binary.LittleEndian.Uint32(f[off : off+4])
}

// Write32 writes the 32-bit little-endian word at physical address pa.
func (m *PhysMem) Write32(pa, v uint32) {
	checkAlign(pa, 4)
	f := m.Page(pa >> PageShift)
	off := pa & (PageSize - 1)
	binary.LittleEndian.PutUint32(f[off:off+4], v)
}

// Read8 reads the byte at pa.
func (m *PhysMem) Read8(pa uint32) byte {
	f := m.peek(pa >> PageShift)
	if f == nil {
		return 0
	}
	return f[pa&(PageSize-1)]
}

// Write8 writes the byte at pa.
func (m *PhysMem) Write8(pa uint32, v byte) {
	m.Page(pa >> PageShift)[pa&(PageSize-1)] = v
}

// ReadBytes copies n bytes starting at pa into a fresh slice; the range
// may span pages.
func (m *PhysMem) ReadBytes(pa, n uint32) []byte {
	out := make([]byte, n)
	for i := uint32(0); i < n; i++ {
		out[i] = m.Read8(pa + i)
	}
	return out
}

// WriteBytes copies b into physical memory starting at pa.
func (m *PhysMem) WriteBytes(pa uint32, b []byte) {
	for i, v := range b {
		m.Write8(pa+uint32(i), v)
	}
}

func checkAlign(pa, n uint32) {
	if pa%n != 0 {
		panic(fmt.Sprintf("hw: unaligned %d-byte access at %#x", n, pa))
	}
}

// RAMAllocator is a byte-budget accountant for an MPM's local RAM, where
// the Cache Kernel keeps all its descriptors and page tables. It tracks
// usage and peak so the Section 5.2 space arithmetic can be reproduced
// from a live system.
type RAMAllocator struct {
	name string
	size int
	used int
	peak int
}

// NewRAMAllocator returns an allocator with the given byte budget.
func NewRAMAllocator(name string, size int) *RAMAllocator {
	return &RAMAllocator{name: name, size: size}
}

// Alloc reserves n bytes, reporting whether they fit.
func (a *RAMAllocator) Alloc(n int) bool {
	if n < 0 {
		panic("hw: negative allocation")
	}
	if a.used+n > a.size {
		return false
	}
	a.used += n
	if a.used > a.peak {
		a.peak = a.used
	}
	return true
}

// Free releases n bytes.
func (a *RAMAllocator) Free(n int) {
	if n < 0 || n > a.used {
		panic(fmt.Sprintf("hw: bad free of %d bytes (%d used) on %s", n, a.used, a.name))
	}
	a.used -= n
}

// RestoreAccounting pins the allocator's usage and high-water mark to
// snapshot-captured values. A machine restore rebuilds descriptors and
// page tables in its own order, which reproduces the same live byte
// count but not necessarily the same peak; this sets both to the
// parent's numbers so the Section 5.2 space arithmetic survives a fork.
func (a *RAMAllocator) RestoreAccounting(used, peak int) {
	if used < 0 || used > a.size || peak < used || peak > a.size {
		panic(fmt.Sprintf("hw: bad restored accounting used=%d peak=%d size=%d on %s", used, peak, a.size, a.name))
	}
	a.used = used
	a.peak = peak
}

// Used reports the bytes currently allocated.
func (a *RAMAllocator) Used() int { return a.used }

// Peak reports the high-water mark.
func (a *RAMAllocator) Peak() int { return a.peak }

// Size reports the total budget.
func (a *RAMAllocator) Size() int { return a.size }

// Name reports the allocator's name.
func (a *RAMAllocator) Name() string { return a.name }
