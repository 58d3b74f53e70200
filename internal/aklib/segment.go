package aklib

import (
	"fmt"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// The memory management library: physical segments mapped into virtual
// memory regions, managed by a segment manager that assigns virtual
// addresses to physical memory and loads mapping descriptors on page
// faults (paper Section 3). Application kernels override the replacement
// policy by providing a Replacer.

// BackingStore pages segment data in and out; the UNIX emulator's RAM
// disk and the database kernel's table store implement it.
type BackingStore interface {
	// ReadPage fills the physical frame with page pageIdx of the
	// backing object.
	ReadPage(e *hw.Exec, pageIdx uint32, pfn uint32)
	// WritePage saves the frame's contents as page pageIdx.
	WritePage(e *hw.Exec, pageIdx uint32, pfn uint32)
}

// SegFlags configure a segment.
type SegFlags struct {
	Writable bool
	Message  bool
	Locked   bool
	// SignalThread receives address-valued signals for writes into the
	// segment's pages (message mode).
	SignalThread ck.ObjID
	// Eager maps every page at creation instead of on demand.
	Eager bool
}

// pageState tracks one page of a segment.
type pageState struct {
	pfn      uint32
	resident bool // frame allocated (data exists in memory)
	mapped   bool // mapping currently loaded in the Cache Kernel
	refd     bool // referenced, per last writeback
	dirty    bool // modified since last backing-store write
	shared   bool // still sharing a copy-on-write source frame
}

// Segment is a contiguous virtual region backed by physical frames.
type Segment struct {
	Name    string
	VA      uint32
	Pages   uint32
	Flags   SegFlags
	Backing BackingStore
	state   []pageState
	sm      *SegmentManager
	cowSrc  *Segment // non-nil for deferred-copy segments
}

// EndVA reports the first address past the segment.
func (s *Segment) EndVA() uint32 { return s.VA + s.Pages*hw.PageSize }

// Resident reports how many pages currently hold frames.
func (s *Segment) Resident() int {
	n := 0
	for i := range s.state {
		if s.state[i].resident {
			n++
		}
	}
	return n
}

// PFN reports the frame backing page idx, if resident.
func (s *Segment) PFN(idx uint32) (uint32, bool) {
	ps := &s.state[idx]
	return ps.pfn, ps.resident
}

// FaultHook intercepts an address space's faults before segment lookup;
// handled reports whether the hook consumed the fault, resolved whether
// the faulting access may retry. Coherence layers (internal/dsm) use
// hooks to claim regions without a backing segment.
type FaultHook func(e *hw.Exec, va uint32, write bool) (handled, resolved bool)

// SegmentManager manages the segments of one address space.
type SegmentManager struct {
	AK  *AppKernel
	SID ck.ObjID

	// Hooks run before segment lookup on every fault.
	Hooks []FaultHook

	segs []*Segment

	// Faults counts demand-paging faults resolved by this manager.
	Faults uint64
	// PageIns counts backing-store reads.
	PageIns uint64
	// PageOuts counts backing-store writes.
	PageOuts uint64
	// CowCopies counts deferred copies resolved.
	CowCopies uint64
}

// NewSegmentManager creates a manager for the given loaded space.
func NewSegmentManager(ak *AppKernel, sid ck.ObjID) *SegmentManager {
	sm := &SegmentManager{AK: ak, SID: sid}
	ak.AttachSpace(sid, sm)
	return sm
}

// Map creates a segment of n pages at va. Overlapping segments are
// rejected.
func (sm *SegmentManager) Map(e *hw.Exec, name string, va, pages uint32, flags SegFlags, backing BackingStore) (*Segment, error) {
	if va%hw.PageSize != 0 || pages == 0 {
		return nil, fmt.Errorf("aklib: bad segment geometry va=%#x pages=%d", va, pages)
	}
	for _, s := range sm.segs {
		if va < s.EndVA() && s.VA < va+pages*hw.PageSize {
			return nil, fmt.Errorf("aklib: segment %q overlaps %q", name, s.Name)
		}
	}
	seg := &Segment{
		Name: name, VA: va, Pages: pages, Flags: flags,
		Backing: backing, state: make([]pageState, pages), sm: sm,
	}
	sm.segs = append(sm.segs, seg)
	if flags.Eager {
		for i := uint32(0); i < pages; i++ {
			if err := sm.loadPage(e, seg, i, flags.Writable); err != nil {
				return nil, err
			}
		}
	}
	return seg, nil
}

// MapShared creates a segment over frames owned elsewhere (shared
// memory / message regions): the frames are supplied, not allocated.
func (sm *SegmentManager) MapShared(e *hw.Exec, name string, va uint32, frames []uint32, flags SegFlags) (*Segment, error) {
	seg, err := sm.Map(e, name, va, uint32(len(frames)), SegFlags{
		Writable: flags.Writable, Message: flags.Message,
		Locked: flags.Locked, SignalThread: flags.SignalThread,
	}, nil)
	if err != nil {
		return nil, err
	}
	for i, pfn := range frames {
		seg.state[i] = pageState{pfn: pfn, resident: true}
	}
	if flags.Eager {
		for i := range frames {
			if err := sm.loadPage(e, seg, uint32(i), flags.Writable); err != nil {
				return nil, err
			}
		}
	}
	return seg, nil
}

// find locates the segment containing va.
func (sm *SegmentManager) find(va uint32) *Segment {
	for _, s := range sm.segs {
		if va >= s.VA && va < s.EndVA() {
			return s
		}
	}
	return nil
}

// HandleFault demand-loads the page containing va, reading it from
// backing store if necessary, and resumes the thread with the combined
// load-and-resume call. It reports whether the fault was resolved.
func (sm *SegmentManager) HandleFault(e *hw.Exec, va uint32, write bool) bool {
	for _, hook := range sm.Hooks {
		if handled, resolved := hook(e, va, write); handled {
			return resolved
		}
	}
	seg := sm.find(va)
	if seg == nil {
		return false // unhandled: SEGV territory for the caller
	}
	if write && !seg.Flags.Writable {
		return false
	}
	sm.Faults++
	idx := (va - seg.VA) / hw.PageSize
	if seg.cowSrc != nil && seg.state[idx].shared {
		// Deferred copy: reads share the source frame read-only; the
		// first write copies the page into a private frame.
		if write {
			return sm.resolveCowWrite(e, seg, idx) == nil
		}
		return sm.loadCowRead(e, seg, idx) == nil
	}
	return sm.loadPageResume(e, seg, idx, write) == nil
}

// loadPage makes page idx resident and loads its mapping.
func (sm *SegmentManager) loadPage(e *hw.Exec, seg *Segment, idx uint32, write bool) error {
	return sm.loadPageWith(e, seg, idx, write, func(spec ck.MappingSpec) error {
		return sm.AK.CK.LoadMapping(e, sm.SID, spec)
	})
}

// loadPageResume is loadPage via the combined load-and-resume call.
func (sm *SegmentManager) loadPageResume(e *hw.Exec, seg *Segment, idx uint32, write bool) error {
	return sm.loadPageWith(e, seg, idx, write, func(spec ck.MappingSpec) error {
		return sm.AK.CK.LoadMappingAndResume(e, sm.SID, spec)
	})
}

func (sm *SegmentManager) loadPageWith(e *hw.Exec, seg *Segment, idx uint32, write bool, load func(ck.MappingSpec) error) error {
	ps := &seg.state[idx]
	if !ps.resident {
		pfn, ok := sm.AK.Frames.Alloc()
		if !ok {
			pfn, ok = sm.reclaimFrame(e)
			if !ok {
				return fmt.Errorf("aklib: %s out of frames", sm.AK.Name)
			}
		}
		ps.pfn = pfn
		ps.resident = true
		if seg.Backing != nil {
			seg.Backing.ReadPage(e, idx, pfn)
			sm.PageIns++
		}
	}
	spec := ck.MappingSpec{
		VA:           seg.VA + idx*hw.PageSize,
		PFN:          ps.pfn,
		Writable:     seg.Flags.Writable,
		Cachable:     !seg.Flags.Message,
		Message:      seg.Flags.Message,
		Locked:       seg.Flags.Locked,
		SignalThread: seg.Flags.SignalThread,
	}
	if err := load(spec); err != nil {
		return err
	}
	ps.mapped = true
	return nil
}

// ResolvePA returns the physical address backing va, paging the page in
// (and loading its mapping) if necessary. Application kernels use it to
// reach user buffers from system-call handlers, where the executing
// address space is the kernel's own.
func (sm *SegmentManager) ResolvePA(e *hw.Exec, va uint32) (uint32, bool) {
	seg := sm.find(va)
	if seg == nil {
		return 0, false
	}
	idx := (va - seg.VA) / hw.PageSize
	ps := &seg.state[idx]
	if !ps.resident {
		if err := sm.loadPage(e, seg, idx, false); err != nil {
			return 0, false
		}
	}
	return ps.pfn<<hw.PageShift | va&(hw.PageSize-1), true
}

// reclaimFrame implements the default page-replacement policy: scan
// segments for a resident, unlocked page (preferring unmapped and
// unreferenced ones), write it to backing store if dirty, and reuse its
// frame. Application kernels with better knowledge override this by
// managing frames directly — the application-controlled physical memory
// the paper motivates.
func (sm *SegmentManager) reclaimFrame(e *hw.Exec) (uint32, bool) {
	var candidate *Segment
	var candIdx uint32
	best := -1
	for _, seg := range sm.segs {
		if seg.Flags.Locked || seg.Backing == nil {
			continue
		}
		for i := range seg.state {
			ps := &seg.state[i]
			if !ps.resident {
				continue
			}
			score := 0
			if !ps.mapped {
				score += 2
			}
			if !ps.refd {
				score++
			}
			if score > best {
				best = score
				candidate, candIdx = seg, uint32(i)
			}
		}
	}
	if candidate == nil {
		return 0, false
	}
	return sm.evictPage(e, candidate, candIdx), true
}

// evictPage unloads and pages out one page, returning its frame.
func (sm *SegmentManager) evictPage(e *hw.Exec, seg *Segment, idx uint32) uint32 {
	ps := &seg.state[idx]
	if ps.mapped {
		st, err := sm.AK.CK.UnloadMapping(e, sm.SID, seg.VA+idx*hw.PageSize)
		if err == nil {
			ps.dirty = ps.dirty || st.Modified
		}
		ps.mapped = false
	}
	if ps.dirty && seg.Backing != nil {
		seg.Backing.WritePage(e, idx, ps.pfn)
		sm.PageOuts++
		ps.dirty = false
	}
	ps.resident = false
	return ps.pfn
}

// noteWriteback records mapping state pushed back by the Cache Kernel.
func (sm *SegmentManager) noteWriteback(st ck.MappingState) {
	seg := sm.find(st.VA)
	if seg == nil {
		return
	}
	ps := &seg.state[(st.VA-seg.VA)/hw.PageSize]
	ps.mapped = false
	ps.refd = st.Referenced
	ps.dirty = ps.dirty || st.Modified
}

// markUnloaded records that the whole space was written back.
func (sm *SegmentManager) markUnloaded() {
	for _, seg := range sm.segs {
		for i := range seg.state {
			seg.state[i].mapped = false
		}
	}
}

// Segments exposes the segment list (read-only use).
func (sm *SegmentManager) Segments() []*Segment { return sm.segs }
