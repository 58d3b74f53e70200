package ck

import (
	"vpp/internal/hw"
	"vpp/internal/pagetable"
)

// newSpaceObj allocates and initializes an address-space descriptor,
// evicting if the cache is full. The translation tree's root table is
// allocated from local RAM immediately (it is logically part of the
// descriptor).
func (k *Kernel) newSpaceObj(e *hw.Exec, owner *KernelObj) (*SpaceObj, error) {
	slot, gen, ok := k.spaces.alloc()
	if !ok {
		if err := k.evictSpace(e); err != nil {
			return nil, err
		}
		slot, gen, ok = k.spaces.alloc()
		if !ok {
			return nil, ErrAllLocked
		}
	}
	tbl, err := pagetable.New(k.MPM.LocalRAM)
	if err != nil {
		k.spaces.release(slot)
		return nil, ErrNoMemory
	}
	so := &SpaceObj{
		id:      makeID(ObjSpace, gen, int(slot)),
		slot:    slot,
		owner:   owner,
		hw:      &hw.Space{Table: tbl, ASID: uint16(slot) + 1},
		threads: make(map[int32]*ThreadObj),
	}
	k.spaces.set(slot, so)
	owner.spaces[slot] = so
	k.Stats.SpaceLoads++
	return so, nil
}

// LoadSpace loads a new address-space object with minimal state (just
// the lock bit), owned by the calling kernel, returning its identifier
// (paper §2.1).
func (k *Kernel) LoadSpace(e *hw.Exec, locked bool) (ObjID, error) {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return 0, err
	}
	e.ChargeNoIntr(costSpaceLoad)
	if locked && !k.chargeLock(caller, lockQuotaSpace) {
		return 0, ErrLockQuota
	}
	so, err := k.newSpaceObj(e, caller)
	if err != nil {
		if locked {
			k.releaseLock(caller, lockQuotaSpace)
		}
		return 0, err
	}
	if locked {
		k.spaces.setLocked(so.slot, true)
	}
	return so.id, nil
}

// UnloadSpace explicitly unloads an address space: all contained threads
// and page mappings are written back to the owning kernel first, then
// the space descriptor is released (paper §2.1).
func (k *Kernel) UnloadSpace(e *hw.Exec, id ObjID) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	so, ok := k.lookupSpace(id)
	if !ok {
		return ErrInvalidID
	}
	if so.owner != caller && caller != k.first {
		return ErrNotOwner
	}
	if caller.space == so {
		return ErrBadArgument // a kernel cannot unload the space it runs in
	}
	e.ChargeNoIntr(costSpaceUnload)
	k.reclaimSpace(e, so, true, false)
	return nil
}

// evictSpace writes back the least recently loaded reclaimable space.
// A locked space is still reclaimable unless its owning kernel is also
// locked (the dependency locking rule). The space the caller currently
// executes in — and the faulting thread's own space — are never victims:
// reclaiming the ground the reclaimer stands on cannot be made atomic.
func (k *Kernel) evictSpace(e *hw.Exec) error {
	var exclude [2]*SpaceObj
	if e != nil {
		exclude[0] = k.spaceOf(e.Space)
		if th := k.threadOf(e); th != nil {
			exclude[1] = th.space
		}
	}
	slot, ok := k.spaces.victim(func(idx int32) bool {
		so := k.spaces.at(idx)
		if so == exclude[0] || so == exclude[1] {
			return false
		}
		if !k.spaces.lockedSlot(idx) {
			return true
		}
		return !k.kernels.lockedSlot(so.owner.slot)
	})
	if !ok {
		return ErrAllLocked
	}
	k.reclaimSpace(e, k.spaces.at(slot), true, true)
	return nil
}

// reclaimSpace unloads a space and its dependents: threads contained in
// the space, then every page mapping, then the descriptor itself
// (paper §4.2: "before an address space object is written back, all the
// page mappings in the address space and all the associated threads are
// written back"). wbDeps pushes dependents to the writeback channel;
// wbSelf additionally writes the space object itself back (eviction) —
// an explicit unload returns the state to the caller instead.
func (k *Kernel) reclaimSpace(e *hw.Exec, so *SpaceObj, wbDeps, wbSelf bool) {
	for _, t := range sortedThreads(so.threads) {
		k.reclaimThread(e, t, wbDeps, false)
	}
	// Unload every mapping. Collect virtual addresses first: unloading
	// mutates the tree, and message-page consistency flushes may remove
	// additional mappings of this same space.
	var vas []uint32
	so.hw.Table.Walk(func(va uint32, _ pagetable.PTE) bool {
		vas = append(vas, va)
		return true
	})
	for _, va := range vas {
		if _, mapped := so.hw.Table.Lookup(va); !mapped {
			continue // already flushed by multi-mapping consistency
		}
		k.unloadMappingVA(e, so, va, wbDeps)
	}
	k.MPM.FlushTLBSpace(so.hw.ASID)
	if k.spaces.lockedSlot(so.slot) && so != k.first.space {
		k.releaseLock(so.owner, lockQuotaSpace)
	}
	so.kernel = nil
	delete(so.owner.spaces, so.slot)
	so.hw.Table.Release()
	id := so.id
	owner := so.owner
	k.spaces.release(so.slot)
	k.Stats.SpaceUnloads++
	if wbSelf {
		k.Stats.SpaceWritebacks++
		if e != nil {
			e.ChargeNoIntr(costSpaceWriteback)
		}
		if owner.attrs.Wb != nil && !k.corruptWriteback(e, "space", id) {
			owner.attrs.Wb.SpaceWriteback(id)
		}
	}
}

// spaceBySlot returns the space currently in a descriptor slot (used by
// dependency records, which store slot numbers; the invariant that
// mappings are unloaded before their space's slot is recycled makes this
// safe).
func (k *Kernel) spaceBySlot(slot int32) *SpaceObj { return k.spaces.at(slot) }
