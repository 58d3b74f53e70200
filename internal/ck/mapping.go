package ck

import (
	"fmt"

	"vpp/internal/hw"
	"vpp/internal/pagetable"
)

// Page mapping operations (paper §2.1-2.2, §4.1). A loaded mapping is
// the virtual-to-physical entry in the space's page tables plus a
// 16-byte physical-to-virtual dependency record in the physical memory
// map, with optional signal and copy-on-write records attached. Mappings
// are identified by (address space, virtual address) — not by object
// identifiers — to keep the dominant descriptor small.

// LoadMapping loads a page mapping into an address space. The caller's
// memory access array must grant the physical page; a write mapping
// requires write rights. Loading may displace another mapping (written
// back to its owner) when the descriptor pool is full.
func (k *Kernel) LoadMapping(e *hw.Exec, sid ObjID, spec MappingSpec) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	return k.loadMapping(e, sid, spec)
}

func (k *Kernel) loadMapping(e *hw.Exec, sid ObjID, spec MappingSpec) error {
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	so, ok := k.lookupSpace(sid)
	if !ok {
		return ErrInvalidID
	}
	if so.owner != caller && so != caller.space && caller != k.first {
		return ErrNotOwner
	}
	if spec.VA%hw.PageSize != 0 {
		return ErrBadArgument
	}
	if !k.checkMappingAccess(e, caller, spec.PFN, spec.Writable) {
		return ErrAccessDenied
	}
	var sigThread *ThreadObj
	if spec.SignalThread != 0 {
		sigThread, ok = k.lookupThread(spec.SignalThread)
		if !ok {
			return ErrInvalidID
		}
	}
	e.ChargeNoIntr(costMappingLoad)
	if spec.Locked && !k.chargeLock(caller, lockQuotaMapping) {
		return ErrLockQuota
	}

	// Replace any existing mapping at this virtual address.
	if _, exists := so.hw.Table.Lookup(spec.VA); exists {
		k.unloadMappingVA(e, so, spec.VA, false)
	}

	// Reserve dependency records, reclaiming victims while short. An
	// evicted victim's slot is handed directly to this reservation —
	// never through the free pool — so concurrent loads on other
	// processors cannot starve this one (the non-blocking reservation
	// discipline of paper §4.2).
	need := 1
	if sigThread != nil {
		need++
	}
	if spec.CopyOnWriteFrom != 0 {
		need++
	}
	// At most three records (mapping, signal, copy-on-write): a fixed
	// array keeps the reservation off the heap.
	var reservedBuf [3]int32
	reserved := reservedBuf[:0]
	releaseReserved := func(reserved []int32) {
		for _, idx := range reserved {
			k.pm.free.release(idx)
		}
		if spec.Locked {
			k.releaseLock(caller, lockQuotaMapping)
		}
	}
	for len(reserved) < need {
		if idx, ok := k.pm.takeFree(); ok {
			reserved = append(reserved, idx)
			continue
		}
		idx, err := k.evictMapping(e, true)
		if err != nil {
			releaseReserved(reserved)
			return err
		}
		reserved = append(reserved, idx)
	}

	// Build the page table entry; local RAM pressure from page tables is
	// also relieved by evicting mappings.
	flags := pagetable.PTEValid
	if spec.Writable {
		flags |= pagetable.PTEWrite
	}
	if spec.Cachable {
		flags |= pagetable.PTECachable
	}
	if spec.Message {
		flags |= pagetable.PTEMessage
	}
	pte := pagetable.MakePTE(spec.PFN, flags)
	for {
		err := so.hw.Table.Insert(spec.VA, pte)
		if err == nil {
			break
		}
		if err == pagetable.ErrNoMem {
			if _, evictErr := k.evictMapping(e, false); evictErr != nil {
				releaseReserved(reserved)
				return ErrNoMemory
			}
			continue
		}
		releaseReserved(reserved)
		return ErrBadArgument
	}
	e.ChargeNoIntr(uint64(so.hw.Table.WalkDepth(spec.VA)) * hw.CostMemHit)

	pvIdx := reserved[0]
	reserved = reserved[1:]
	k.pm.insertAt(pvIdx, depPhysVirt, spec.PFN, spec.VA, so.slot)
	e.ChargeNoIntr(costHashProbe + costDescInit)
	if spec.Locked {
		k.pm.rec(pvIdx).setLocked(true)
	}
	if sigThread != nil {
		sigIdx := reserved[0]
		reserved = reserved[1:]
		k.pm.insertAt(sigIdx, depSignal, uint32(pvIdx), uint32(sigThread.slot), so.slot)
		sigThread.sigRecords[sigIdx] = struct{}{}
		e.ChargeNoIntr(costHashProbe + costDescInit)
	}
	if spec.CopyOnWriteFrom != 0 {
		cowIdx := reserved[0]
		reserved = reserved[1:]
		k.pm.insertAt(cowIdx, depCopyOnWrite, uint32(pvIdx), spec.CopyOnWriteFrom, so.slot)
		e.ChargeNoIntr(costHashProbe + costDescInit)
	}
	so.mappings++
	k.bumpVersion()
	k.Stats.MappingLoads++
	return nil
}

// UnloadMapping explicitly unloads the mapping at (space, va), returning
// its current state including the hardware referenced and modified bits —
// how an application kernel reclaims a page frame (paper §2.1).
func (k *Kernel) UnloadMapping(e *hw.Exec, sid ObjID, va uint32) (MappingState, error) {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return MappingState{}, err
	}
	so, ok := k.lookupSpace(sid)
	if !ok {
		return MappingState{}, ErrInvalidID
	}
	if so.owner != caller && so != caller.space {
		return MappingState{}, ErrNotOwner
	}
	if _, mapped := so.hw.Table.Lookup(va); !mapped {
		return MappingState{}, ErrInvalidID
	}
	e.ChargeNoIntr(costMappingUnload)
	st := k.unloadMappingVA(e, so, va, false)
	return st, nil
}

// UnloadMappingRange unloads every mapping in [va, va+len), returning
// the states. Used when unmapping regions.
func (k *Kernel) UnloadMappingRange(e *hw.Exec, sid ObjID, va, length uint32) ([]MappingState, error) {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return nil, err
	}
	so, ok := k.lookupSpace(sid)
	if !ok {
		return nil, ErrInvalidID
	}
	if so.owner != caller && so != caller.space {
		return nil, ErrNotOwner
	}
	var out []MappingState
	for off := uint32(0); off < length; off += hw.PageSize {
		if _, mapped := so.hw.Table.Lookup(va + off); !mapped {
			continue
		}
		e.ChargeNoIntr(costMappingUnload / 4)
		out = append(out, k.unloadMappingVA(e, so, va+off, false))
	}
	return out, nil
}

// unloadMappingVA removes the mapping at (so, va). With writeback set the
// state is pushed to the owner's writeback channel; otherwise it is only
// returned.
func (k *Kernel) unloadMappingVA(e *hw.Exec, so *SpaceObj, va uint32, writeback bool) MappingState {
	pte, ok := so.hw.Table.Lookup(va)
	if !ok {
		return MappingState{}
	}
	pvIdx := int32(-1)
	probes := k.pm.findEach(depPhysVirt, pte.PFN(), func(idx int32, r *depRecord) bool {
		if r.dep == va && r.owner() == so.slot {
			pvIdx = idx
			return false
		}
		return true
	})
	if e != nil {
		e.ChargeNoIntr(uint64(probes) * costHashProbe)
	}
	if pvIdx < 0 {
		panic(fmt.Sprintf("ck: mapping (%v, %#x) has no dependency record", so.id, va))
	}
	return k.unloadMappingRecord(e, pvIdx, writeback, false)
}

// unloadMappingRecord removes the physical-to-virtual record pvIdx, its
// signal and copy-on-write records, the page table entry and TLB
// entries. Removing a signal mapping triggers multi-mapping consistency:
// all writable mappings of the page are flushed too (paper §4.2).
// With keepSlot the victim's record slot is kept reserved for the caller
// instead of returning to the free pool.
func (k *Kernel) unloadMappingRecord(e *hw.Exec, pvIdx int32, writeback, keepSlot bool) MappingState {
	r := k.pm.rec(pvIdx)
	so := k.spaceBySlot(r.owner())
	va := r.dep
	pfn := r.key

	pte, _ := so.hw.Table.Remove(va)
	k.MPM.FlushTLBPage(so.hw.ASID, va>>hw.PageShift)
	if e != nil {
		e.ChargeNoIntr(hw.CostMemHit * 3)
	}

	st := MappingState{
		Space:      so.id,
		VA:         va,
		PFN:        pfn,
		Referenced: pte&pagetable.PTEReferenced != 0,
		Modified:   pte&pagetable.PTEModified != 0,
		Writable:   pte.Writable(),
		Message:    pte.Message(),
	}

	// Detach dependent records.
	hadSignal := false
	var sigIdxs []int32
	probes := k.pm.findEach(depSignal, uint32(pvIdx), func(idx int32, rec *depRecord) bool {
		sigIdxs = append(sigIdxs, idx)
		return true
	})
	for _, idx := range sigIdxs {
		rec := k.pm.rec(idx)
		if to, ok := k.threads.peek(int32(rec.dep)); ok {
			delete(to.sigRecords, idx)
			st.SignalThread = to.id
		}
		probes += k.pm.remove(idx)
		hadSignal = true
	}
	var cowIdxs []int32
	probes += k.pm.findEach(depCopyOnWrite, uint32(pvIdx), func(idx int32, rec *depRecord) bool {
		cowIdxs = append(cowIdxs, idx)
		return true
	})
	for _, idx := range cowIdxs {
		st.CopyOnWriteFrom = k.pm.rec(idx).dep
		probes += k.pm.remove(idx)
	}
	if keepSlot {
		probes += k.pm.removeKeep(pvIdx)
	} else {
		probes += k.pm.remove(pvIdx)
	}
	if e != nil {
		e.ChargeNoIntr(uint64(probes) * costHashProbe)
	}
	so.mappings--
	k.bumpVersion()
	k.Stats.MappingUnloads++

	if writeback {
		k.Stats.MappingWritebacks++
		if e != nil {
			e.ChargeNoIntr(costMappingWriteback)
		}
		if so.owner.attrs.Wb != nil && !k.corruptWriteback(e, "mapping", so.id) {
			so.owner.attrs.Wb.MappingWriteback(st)
		}
	}

	// Multi-mapping consistency: flushing any signal mapping for a page
	// flushes all writable mappings of that page, so a sender can never
	// signal without its receivers' mappings being loaded.
	if hadSignal {
		var flush []int32
		k.pm.findEach(depPhysVirt, pfn, func(idx int32, rec *depRecord) bool {
			oso := k.spaceBySlot(rec.owner())
			if p, ok := oso.hw.Table.Lookup(rec.dep); ok && p.Writable() {
				flush = append(flush, idx)
			}
			return true
		})
		for _, idx := range flush {
			if k.pm.rec(idx).kind() == depPhysVirt { // still live
				k.unloadMappingRecord(e, idx, true, false)
			}
		}
	}
	return st
}

// evictMapping reclaims one mapping by clock scan, writing it back to
// its owner. A locked mapping is protected only while its space, kernel
// and signal thread (if any) are all locked (paper §4.2). With keepSlot
// the victim's descriptor slot is returned, reserved for the caller.
func (k *Kernel) evictMapping(e *hw.Exec, keepSlot bool) (int32, error) {
	idx, scanned := k.pm.victim(func(i int32, r *depRecord) bool {
		if !r.locked() {
			return true
		}
		so := k.spaceBySlot(r.owner())
		if !k.spaces.lockedSlot(so.slot) || !k.kernels.lockedSlot(so.owner.slot) {
			return true
		}
		sigLocked := true
		k.pm.findEach(depSignal, uint32(i), func(_ int32, rec *depRecord) bool {
			if !k.threads.lockedSlot(int32(rec.dep)) {
				sigLocked = false
			}
			return true
		})
		return !sigLocked
	})
	if e != nil {
		e.ChargeNoIntr(uint64(scanned) * costScanStep)
	}
	if idx < 0 {
		return -1, ErrAllLocked
	}
	k.unloadMappingRecord(e, idx, true, keepSlot)
	return idx, nil
}

// MappingInfo reports the current state of a loaded mapping without
// unloading it (diagnostic aid; the paper's Cache Kernel omits most
// query operations, so tests and tools use this rather than kernels).
func (k *Kernel) MappingInfo(sid ObjID, va uint32) (MappingState, bool) {
	so, ok := k.lookupSpace(sid)
	if !ok {
		return MappingState{}, false
	}
	pte, ok := so.hw.Table.Lookup(va)
	if !ok {
		return MappingState{}, false
	}
	return MappingState{
		Space:      sid,
		VA:         va,
		PFN:        pte.PFN(),
		Referenced: pte&pagetable.PTEReferenced != 0,
		Modified:   pte&pagetable.PTEModified != 0,
		Writable:   pte.Writable(),
		Message:    pte.Message(),
	}, true
}
