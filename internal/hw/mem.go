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

// PhysMem is the machine's physical memory: an array of lazily allocated
// 4 KB frames addressed by a 32-bit physical address. It is shared by all
// MPMs over the simulated VMEbus.
//
// Frames can be copy-on-write shared with a snapshot (FrameImage) and
// with any machines forked from it: Freeze marks every allocated frame
// shared, and the first write to a shared frame privatizes a copy, so
// a fork's writes never reach the parent, its siblings, or the image.
//
// The frame table is one flat array, allocated whole. Only one engine
// ever writes it, so it could be chunked on first touch, as the Cache
// Kernel's dependency records and the L2 tags are.
type PhysMem struct {
	frames []*[PageSize]byte
	// shared[i] means frames[i] is referenced by a FrameImage (and
	// possibly other machines) and must be copied before mutation. Nil
	// until the memory first participates in a snapshot.
	shared []bool
	size   uint32
	// COW counters; they never feed back into simulated behavior.
	sharedPages uint64
	copiedPages uint64
	faults      uint64
}

// CowStats counts copy-on-write activity on a physical memory.
type CowStats struct {
	// SharedPages is the number of frames currently in shared
	// (copy-before-write) state.
	SharedPages uint64
	// CopiedPages is the cumulative number of frames privatized by
	// copying (the frame had contents that a write had to preserve).
	CopiedPages uint64
	// Faults is the cumulative number of copy-on-write write faults
	// taken (every de-share event, including ones that only needed a
	// fresh zero frame).
	Faults uint64
}

// CowStats reports the memory's copy-on-write counters.
func (m *PhysMem) CowStats() CowStats {
	return CowStats{
		SharedPages: m.sharedPages,
		CopiedPages: m.copiedPages,
		Faults:      m.faults,
	}
}

// FrameImage is an immutable snapshot of a physical memory's frames.
// It shares frame storage copy-on-write with the memory it was frozen
// from and with every memory created via NewPhysMem: all of them mark
// the common frames shared and copy before writing, so the image's
// bytes never change after Freeze returns.
type FrameImage struct {
	frames []*[PageSize]byte
	size   uint32
}

// Freeze snapshots the memory's current contents as an immutable
// FrameImage and marks every allocated frame copy-on-write shared —
// including in the parent, whose next write to a captured frame will
// privatize a copy rather than mutate the image.
func (m *PhysMem) Freeze() *FrameImage {
	if m.shared == nil {
		m.shared = make([]bool, len(m.frames))
	}
	im := &FrameImage{frames: make([]*[PageSize]byte, len(m.frames)), size: m.size}
	copy(im.frames, m.frames)
	for i, f := range m.frames {
		if f != nil && !m.shared[i] {
			m.shared[i] = true
			m.sharedPages++
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
	return im.frames[pfn]
}

// NewPhysMem creates a fresh physical memory whose initial contents are
// the image, sharing every allocated frame copy-on-write. This is the
// mutable restore path: a forked machine starts from the image and
// lazily copies a frame only on its first write.
func (im *FrameImage) NewPhysMem() *PhysMem {
	m := &PhysMem{
		frames: make([]*[PageSize]byte, len(im.frames)),
		shared: make([]bool, len(im.frames)),
		size:   im.size,
	}
	copy(m.frames, im.frames)
	for i, f := range m.frames {
		if f != nil {
			m.shared[i] = true
			m.sharedPages++
		}
	}
	return m
}

// NewPhysMem returns a physical memory of the given size, which must be a
// positive multiple of the page size.
func NewPhysMem(size uint32) *PhysMem {
	if size == 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("hw: bad physical memory size %#x", size))
	}
	return &PhysMem{frames: make([]*[PageSize]byte, size/PageSize), size: size}
}

// Size reports the physical memory size in bytes.
func (m *PhysMem) Size() uint32 { return m.size }

// Frames reports the number of page frames.
func (m *PhysMem) Frames() uint32 { return m.size / PageSize }

// Page returns the frame for pfn for mutation, allocating it zeroed on
// first touch and privatizing a copy if the frame is snapshot-shared.
// Read-only internal paths use peek instead, which never allocates or
// de-shares.
func (m *PhysMem) Page(pfn uint32) *[PageSize]byte {
	if pfn >= uint32(len(m.frames)) {
		panic(fmt.Sprintf("hw: physical frame %#x out of range", pfn))
	}
	f := m.frames[pfn]
	if f == nil {
		f = new([PageSize]byte)
		m.frames[pfn] = f
		return f
	}
	if m.shared != nil && m.shared[pfn] {
		c := new([PageSize]byte)
		*c = *f
		m.frames[pfn] = c
		m.shared[pfn] = false
		m.sharedPages--
		m.copiedPages++
		m.faults++
		return c
	}
	return f
}

// peek returns the frame for pfn without allocating or privatizing it;
// nil means the frame has never been touched and reads as zeros.
func (m *PhysMem) peek(pfn uint32) *[PageSize]byte {
	if pfn >= uint32(len(m.frames)) {
		panic(fmt.Sprintf("hw: physical frame %#x out of range", pfn))
	}
	return m.frames[pfn]
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
