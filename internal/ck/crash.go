package ck

import "vpp/internal/hw"

// Crash models a Cache Kernel failure followed by an immediate reboot
// of the MPM — the fault-containment event the caching model is built
// around (paper §3: each MPM runs its own Cache Kernel instance, and
// everything the instance held is a cache of state the application
// kernels can regenerate). It runs in engine context; internal/chaos
// schedules it at a fixed virtual time. The reboot is instantaneous in
// virtual time — detection and reload latency, which the recovery
// experiment measures, dominate a real reset by orders of magnitude.
//
// After Crash the instance is as freshly initialized as New left it,
// with two deliberate exceptions: descriptor-slot generations and the
// pmap version are preserved (monotonic), so no identifier or cached
// reverse-TLB entry handed out before the crash can ever validate
// against an object loaded after it.
func (k *Kernel) Crash() {
	k.Epoch++
	k.emit(nil, Event{Kind: EvCrash, A: k.Epoch})
	// The reset kills whatever is executing on the MPM's CPUs: the
	// register files are gone, so those contexts unwind at their next
	// charge point and can only be recreated, never resumed. Parked
	// contexts (blocked or ready threads) keep their machine state —
	// their descriptors were the cache, and reloading a descriptor
	// resumes them, exactly like the swap/sleep reload paths.
	for _, cpu := range k.MPM.CPUs {
		if cpu.Cur != nil {
			cpu.Cur.Kill()
		}
		cpu.ClearPending()
	}
	// Release every loaded space's translation tree back to local RAM
	// and flush its TLB footprint, and drop its designation link; the
	// descriptor caches themselves are reused in place.
	k.spaces.forEach(func(_ int32, so *SpaceObj) bool {
		so.hw.Table.Release()
		k.MPM.FlushTLBSpace(so.hw.ASID)
		so.kernel = nil
		return true
	})
	k.kernels.wipe()
	k.spaces.wipe()
	k.threads.wipe()
	k.pm = newPMap(k.Cfg.MappingSlots, k.Cfg.PMapBuckets)
	k.first = nil
	// The ready queues go with the old scheduler; their threads are
	// stale objects now, and their queued flags must say so.
	for _, q := range k.sched.ready {
		for _, t := range q {
			t.queued = false
		}
	}
	k.sched = newScheduler(k)
	for i := range k.rtlbs {
		k.rtlbs[i] = newRTLB(k.Cfg.RTLBEntries)
	}
	k.bumpVersion()
}

// corruptWriteback asks the installed fault injector whether this
// writeback's transfer to the owning kernel is corrupted. Returning
// true means the state is lost in flight: the descriptor reclaim has
// already completed in full — no dependency record survives it — but
// the owner keeps a stale record of the object and recovers through
// the ordinary ErrInvalidID-and-reload protocol.
func (k *Kernel) corruptWriteback(e *hw.Exec, kind string, id ObjID) bool {
	if k.WritebackFault == nil || !k.WritebackFault(kind, id) {
		return false
	}
	k.emit(e, Event{Kind: EvChaosCorruptWriteback, Obj: id, Name: kind})
	return true
}
