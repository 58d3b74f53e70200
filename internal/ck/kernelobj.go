package ck

import (
	"fmt"

	"vpp/internal/hw"
)

// Errors returned across the Cache Kernel interface. Identifier failures
// are ordinary events in the caching model: the application kernel
// responds by reloading the missing object and retrying (paper §2).
var (
	ErrInvalidID     = fmt.Errorf("ck: identifier does not name a loaded object")
	ErrNotFirst      = fmt.Errorf("ck: operation reserved to the first kernel")
	ErrNotOwner      = fmt.Errorf("ck: caller does not own the object")
	ErrAccessDenied  = fmt.Errorf("ck: memory access array denies the physical page")
	ErrLockQuota     = fmt.Errorf("ck: locked-object quota exhausted")
	ErrBadPriority   = fmt.Errorf("ck: priority exceeds the kernel's maximum")
	ErrAllLocked     = fmt.Errorf("ck: cache full and every entry protected by locks")
	ErrNoMemory      = fmt.Errorf("ck: local RAM exhausted")
	ErrBadArgument   = fmt.Errorf("ck: malformed argument")
	ErrNoKernelSpace = fmt.Errorf("ck: kernel has no designated address space")
)

// BootInfo describes the objects created for the first kernel.
type BootInfo struct {
	Kernel ObjID
	Space  ObjID
	Thread ObjID
	Exec   *hw.Exec
}

// Boot creates the first application kernel — the system resource manager
// — granting it full permission on all physical resources, locks it in
// the cache, and dispatches its initial thread on CPU 0 (paper §3). It
// must be called once, before the engine runs.
func (k *Kernel) Boot(attrs KernelAttrs, prio int, body func(*hw.Exec)) (BootInfo, error) {
	if k.first != nil {
		return BootInfo{}, fmt.Errorf("ck: already booted")
	}
	ko, err := k.newKernelObj(nil, attrs)
	if err != nil {
		return BootInfo{}, err
	}
	ko.owner = ko
	k.first = ko
	k.kernels.setLocked(ko.slot, true)
	// Full rights on all physical memory: 0x55 repeats a two-bit
	// field across the four page groups of each byte.
	for i := range ko.access {
		ko.access[i] = byte(rightRead|rightWrite) * 0x55
	}

	so, err := k.newSpaceObj(nil, ko)
	if err != nil {
		return BootInfo{}, err
	}
	ko.space = so
	k.kernelBySpace[so] = ko
	k.spaces.setLocked(so.slot, true)

	exec := k.MPM.NewExec(attrs.Name+"/boot", body)
	to, err := k.newThreadObj(nil, ko, so, ThreadState{Priority: prio, Exec: exec})
	if err != nil {
		return BootInfo{}, err
	}
	k.threads.setLocked(to.slot, true)
	k.sched.dispatch(k.MPM.CPUs[0], to)
	return BootInfo{Kernel: ko.id, Space: so.id, Thread: to.id, Exec: exec}, nil
}

// newKernelObj allocates and initializes a kernel descriptor, evicting
// the least recently loaded unprotected kernel if the cache is full.
func (k *Kernel) newKernelObj(e *hw.Exec, attrs KernelAttrs) (*KernelObj, error) {
	slot, gen, ok := k.kernels.alloc()
	if !ok {
		if err := k.evictKernel(e); err != nil {
			return nil, err
		}
		slot, gen, ok = k.kernels.alloc()
		if !ok {
			return nil, ErrAllLocked
		}
	}
	ncpu := len(k.MPM.CPUs)
	ko := &KernelObj{
		id:        makeID(ObjKernel, gen, int(slot)),
		slot:      slot,
		attrs:     attrs,
		usage:     make([]uint64, ncpu),
		overQuota: make([]bool, ncpu),
		spaces:    make(map[int32]*SpaceObj),
		threads:   make(map[int32]*ThreadObj),
	}
	if k.MPM.Machine != nil {
		ko.windowStart = k.MPM.Engine.Now()
	}
	k.kernels.set(slot, ko)
	k.Stats.KernelLoads++
	return ko, nil
}

// LoadKernel loads a new application kernel object. Only the first
// kernel may call it; the new kernel is owned by (and written back to)
// the first kernel.
func (k *Kernel) LoadKernel(e *hw.Exec, attrs KernelAttrs) (ObjID, error) {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return 0, err
	}
	if caller != k.first {
		return 0, ErrNotFirst
	}
	e.ChargeNoIntr(costKernelLoad)
	ko, err := k.newKernelObj(e, attrs)
	if err != nil {
		return 0, err
	}
	ko.owner = k.first
	if attrs.Locked {
		if !k.chargeLock(caller, lockQuotaKernel) {
			// The first kernel's quota covers kernels it locks.
			k.reclaimKernel(e, ko, false, false)
			return 0, ErrLockQuota
		}
		k.kernels.setLocked(ko.slot, true)
	}
	return ko.id, nil
}

// UnloadKernel explicitly unloads a kernel object, first unloading every
// address space, thread and mapping it owns (an expensive operation the
// paper expects to be infrequent).
func (k *Kernel) UnloadKernel(e *hw.Exec, id ObjID) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	if caller != k.first {
		return ErrNotFirst
	}
	ko, ok := k.lookupKernel(id)
	if !ok {
		return ErrInvalidID
	}
	if ko == k.first {
		return ErrBadArgument
	}
	e.ChargeNoIntr(costKernelUnload)
	k.reclaimKernel(e, ko, true, false)
	return nil
}

// evictKernel writes back the least recently loaded unprotected kernel,
// never the caller's own.
func (k *Kernel) evictKernel(e *hw.Exec) error {
	var self *KernelObj
	if e != nil {
		self, _ = k.callerKernel(e)
	}
	slot, ok := k.kernels.victim(func(idx int32) bool {
		if k.kernels.lockedSlot(idx) {
			return false
		}
		return self == nil || k.kernels.at(idx) != self
	})
	if !ok {
		return ErrAllLocked
	}
	k.reclaimKernel(e, k.kernels.at(slot), true, true)
	return nil
}

// reclaimKernel unloads a kernel object and everything it owns,
// dependency-first (Figure 6). wbDeps pushes owned objects to their
// writeback channels; wbSelf writes the kernel object itself back to the
// first kernel (eviction).
func (k *Kernel) reclaimKernel(e *hw.Exec, ko *KernelObj, wbDeps, wbSelf bool) {
	// Threads owned by the kernel go first (they reference spaces).
	for _, t := range sortedThreads(ko.threads) {
		k.reclaimThread(e, t, wbDeps, false)
	}
	// Then the spaces it owns, which unload their mappings and any
	// remaining threads contained in them.
	for _, so := range sortedSpaces(ko.spaces) {
		k.reclaimSpace(e, so, wbDeps, wbSelf)
	}
	// Finally the kernel's own address space (owned by the first kernel
	// but associated with this one): unloading a kernel "requires
	// unloading the associated address spaces, threads, and memory
	// mappings" (paper §2.4). Its threads — including a running main —
	// go with it.
	if ko.space != nil && ko.space.owner != ko {
		if _, ok := k.spaces.get(ko.space.slot, ko.space.id.gen()); ok {
			k.reclaimSpace(e, ko.space, wbDeps, wbSelf)
		}
	}
	if k.kernels.lockedSlot(ko.slot) && ko.owner != nil && ko != k.first {
		k.releaseLock(ko.owner, lockQuotaKernel)
	}
	if ko.space != nil {
		delete(k.kernelBySpace, ko.space)
	}
	id := ko.id
	k.kernels.release(ko.slot)
	k.Stats.KernelUnloads++
	if wbSelf {
		k.Stats.KernelWritebacks++
		if e != nil {
			e.ChargeNoIntr(costKernelWriteback)
		}
		if ko.owner != nil && ko.owner.attrs.Wb != nil && !k.corruptWriteback(e, "kernel", id) {
			ko.owner.attrs.Wb.KernelWriteback(id)
		}
	}
}

// SetKernelSpace designates a kernel object's own address space: the
// space in which its threads' traps are Cache Kernel calls and whose
// handlers receive forwarded traps and faults. First kernel only.
func (k *Kernel) SetKernelSpace(e *hw.Exec, kid, sid ObjID) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	if caller != k.first {
		return ErrNotFirst
	}
	ko, ok := k.lookupKernel(kid)
	if !ok {
		return ErrInvalidID
	}
	so, ok := k.lookupSpace(sid)
	if !ok {
		return ErrInvalidID
	}
	e.ChargeNoIntr(costDescInit)
	if ko.space != nil {
		delete(k.kernelBySpace, ko.space)
	}
	ko.space = so
	k.kernelBySpace[so] = ko
	return nil
}

// SetKernelMemoryAccess grants or revokes rights on a range of page
// groups — one of the paper's three specialized kernel-object modify
// operations, provided so the SRM need not unload/reload a kernel to
// adjust its allocation (paper §2.4, §4.3).
func (k *Kernel) SetKernelMemoryAccess(e *hw.Exec, kid ObjID, firstGroup, nGroups uint32, read, write bool) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	if caller != k.first {
		return ErrNotFirst
	}
	ko, ok := k.lookupKernel(kid)
	if !ok {
		return ErrInvalidID
	}
	if firstGroup+nGroups > pageGroups {
		return ErrBadArgument
	}
	var r groupRights
	if read {
		r |= rightRead
	}
	if write {
		r |= rightWrite
	}
	e.ChargeNoIntr(uint64(nGroups) * 2)
	for g := firstGroup; g < firstGroup+nGroups; g++ {
		ko.setGroupAccess(g, r)
	}
	return nil
}

// SetKernelCPUShare adjusts a kernel's processor percentage allocation —
// the second specialized modify operation.
func (k *Kernel) SetKernelCPUShare(e *hw.Exec, kid ObjID, share []int) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	if caller != k.first {
		return ErrNotFirst
	}
	ko, ok := k.lookupKernel(kid)
	if !ok {
		return ErrInvalidID
	}
	e.ChargeNoIntr(costDescInit)
	ko.attrs.CPUShare = append([]int(nil), share...)
	return nil
}

// SetKernelMaxPriority adjusts the ceiling on priorities the kernel may
// assign its threads — the third specialized modify operation.
func (k *Kernel) SetKernelMaxPriority(e *hw.Exec, kid ObjID, maxPrio int) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	if caller != k.first {
		return ErrNotFirst
	}
	ko, ok := k.lookupKernel(kid)
	if !ok {
		return ErrInvalidID
	}
	if maxPrio < 0 || maxPrio >= NumPriorities {
		return ErrBadArgument
	}
	e.ChargeNoIntr(costDescInit)
	ko.attrs.MaxPrio = maxPrio
	return nil
}

// sortedThreads returns map values in deterministic slot order.
func sortedThreads(m map[int32]*ThreadObj) []*ThreadObj {
	out := make([]*ThreadObj, 0, len(m))
	for i := int32(0); len(out) < len(m); i++ {
		if t, ok := m[i]; ok {
			out = append(out, t)
		}
	}
	return out
}

// sortedSpaces returns map values in deterministic slot order.
func sortedSpaces(m map[int32]*SpaceObj) []*SpaceObj {
	out := make([]*SpaceObj, 0, len(m))
	for i := int32(0); len(out) < len(m); i++ {
		if s, ok := m[i]; ok {
			out = append(out, s)
		}
	}
	return out
}
