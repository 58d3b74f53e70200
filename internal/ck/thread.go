package ck

import (
	"vpp/internal/hw"
)

// newThreadObj allocates and initializes a thread descriptor.
func (k *Kernel) newThreadObj(e *hw.Exec, owner *KernelObj, so *SpaceObj, st ThreadState) (*ThreadObj, error) {
	if st.Exec == nil || st.Exec.Finished() {
		return nil, ErrBadArgument
	}
	slot, gen, ok := k.threads.alloc()
	if !ok {
		if err := k.evictThread(e); err != nil {
			return nil, err
		}
		slot, gen, ok = k.threads.alloc()
		if !ok {
			return nil, ErrAllLocked
		}
	}
	to := &ThreadObj{
		id:         makeID(ObjThread, gen, int(slot)),
		slot:       slot,
		owner:      owner,
		space:      so,
		exec:       st.Exec,
		prio:       st.Priority,
		state:      threadSuspended,
		sigRecords: make(map[int32]struct{}),
	}
	to.exec.Regs = st.Regs
	to.exec.User = to
	k.threads.set(slot, to)
	so.threads[slot] = to
	owner.threads[slot] = to
	k.Stats.ThreadLoads++
	return to, nil
}

// LoadThread loads a thread with the given register state into the given
// address space, making it a candidate for execution (paper §2.3). The
// space identifier must be valid; if the space was written back
// concurrently, the load fails with ErrInvalidID and the application
// kernel reloads the space and retries.
func (k *Kernel) LoadThread(e *hw.Exec, sid ObjID, st ThreadState, locked bool) (ObjID, error) {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return 0, err
	}
	so, ok := k.lookupSpace(sid)
	if !ok {
		return 0, ErrInvalidID
	}
	if so.owner != caller && so != caller.space {
		return 0, ErrNotOwner
	}
	if st.Priority < 0 || st.Priority >= NumPriorities {
		return 0, ErrBadPriority
	}
	if caller.attrs.MaxPrio > 0 && st.Priority > caller.attrs.MaxPrio {
		return 0, ErrBadPriority
	}
	e.ChargeNoIntr(costThreadLoad)
	if locked && !k.chargeLock(caller, lockQuotaThread) {
		return 0, ErrLockQuota
	}
	to, err := k.newThreadObj(e, caller, so, st)
	if err != nil {
		if locked {
			k.releaseLock(caller, lockQuotaThread)
		}
		return 0, err
	}
	if locked {
		k.threads.setLocked(to.slot, true)
	}
	k.sched.makeReady(to, e.Now())
	return to.id, nil
}

// UnloadThread explicitly unloads a thread, returning its saved state so
// the application kernel can store it and reload later (for example when
// the thread sleeps on a long-term event, is swapped out, or hits a
// debugger breakpoint — paper §2.3). Unloading the calling thread
// succeeds, and the call returns only after the thread is reloaded and
// redispatched.
func (k *Kernel) UnloadThread(e *hw.Exec, id ObjID) (ThreadState, error) {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return ThreadState{}, err
	}
	to, ok := k.lookupThread(id)
	if !ok {
		return ThreadState{}, ErrInvalidID
	}
	if to.owner != caller && caller != k.first {
		return ThreadState{}, ErrNotOwner
	}
	e.ChargeNoIntr(costThreadUnload)
	st := ThreadState{Regs: to.exec.Regs, Priority: to.prio, Exec: to.exec}
	self := to.exec == e
	if !k.reclaimThread(e, to, false, false) {
		// The thread exited while being forced off its processor; its
		// descriptor was reclaimed without writeback, so the identifier
		// has failed — same as unloading after the exit.
		return ThreadState{}, ErrInvalidID
	}
	if self {
		// The calling thread no longer exists in the Cache Kernel:
		// release the processor and wait to be reloaded.
		k.sched.blockUnloaded(e)
	}
	return st, nil
}

// evictThread writes back the least recently loaded reclaimable thread.
// A locked thread is protected only while its space and owning kernel
// are locked too. The calling thread itself is never the victim.
func (k *Kernel) evictThread(e *hw.Exec) error {
	self := k.threadOf(e)
	slot, ok := k.threads.victim(func(idx int32) bool {
		to := k.threads.at(idx)
		if to == self {
			return false
		}
		if !k.threads.lockedSlot(idx) {
			return true
		}
		return !(k.spaces.lockedSlot(to.space.slot) && k.kernels.lockedSlot(to.owner.slot))
	})
	if !ok {
		return ErrAllLocked
	}
	to := k.threads.at(slot)
	k.reclaimThread(e, to, true, false)
	return nil
}

// reclaimThread unloads a thread descriptor: forces it off its processor
// if running, removes it from scheduler queues, unloads the signal
// mappings that depend on it (Figure 6), and optionally writes its state
// back to the owning kernel. It reports whether it reclaimed the
// descriptor: reclamation paths yield (forcing a victim off its
// processor charges cycles), and during a yield the victim's body can
// return — its Exited cleanup reclaims the descriptor first, and this
// call must not release the slot a second time.
func (k *Kernel) reclaimThread(e *hw.Exec, to *ThreadObj, writeback, dying bool) bool {
	if !k.threads.valid(to.slot, to.id.gen()) {
		// Gone already: the thread exited (or went through a dependency
		// reclaim) during a yield between the caller's lookup and now.
		return false
	}
	switch to.state {
	case threadRunning:
		if to.exec == e || dying {
			// Unloading self (or cleanup of a finished body): record
			// accounting only; the caller parks or exits afterwards.
			k.sched.undispatch(to)
			to.state = threadSuspended
		} else if e != nil {
			k.sched.forceOffCPU(e, to)
			if !k.threads.valid(to.slot, to.id.gen()) {
				return false
			}
		}
	case threadReady:
		k.sched.removeReady(to)
		to.state = threadSuspended
	}
	// Unload signal mappings naming this thread; each flush enforces
	// multi-mapping consistency on its message page.
	for len(to.sigRecords) > 0 {
		var sigIdx int32 = -1
		//ckvet:allow detmap min-reduction over the keys is iteration-order independent
		for idx := range to.sigRecords {
			if sigIdx < 0 || idx < sigIdx {
				sigIdx = idx
			}
		}
		pvIdx := int32(k.pm.rec(sigIdx).key)
		k.unloadMappingRecord(e, pvIdx, true, false)
	}
	// The mapping flushes charge consistency work — more yield points; a
	// concurrent reclaim (eviction racing an unload) may have released
	// the slot while this one waited.
	if !k.threads.valid(to.slot, to.id.gen()) {
		return false
	}
	if k.threads.lockedSlot(to.slot) {
		k.releaseLock(to.owner, lockQuotaThread)
	}
	delete(to.space.threads, to.slot)
	delete(to.owner.threads, to.slot)
	id := to.id
	owner := to.owner
	st := ThreadState{Regs: to.exec.Regs, Priority: to.prio, Exec: to.exec}
	k.threads.release(to.slot)
	k.Stats.ThreadUnloads++
	if writeback {
		k.Stats.ThreadWritebacks++
		if e != nil {
			e.ChargeNoIntr(costThreadWriteback)
		}
		if owner.attrs.Wb != nil && !k.corruptWriteback(e, "thread", id) {
			owner.attrs.Wb.ThreadWriteback(id, st)
		}
	}
	return true
}

// SetThreadPriority is the specialized modify operation allowing a
// scheduler thread to re-prioritize a loaded thread without the
// unload/modify/reload cycle (paper §2.3).
func (k *Kernel) SetThreadPriority(e *hw.Exec, id ObjID, prio int) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	to, ok := k.lookupThread(id)
	if !ok {
		return ErrInvalidID
	}
	if to.owner != caller && caller != k.first {
		return ErrNotOwner
	}
	if prio < 0 || prio >= NumPriorities {
		return ErrBadPriority
	}
	if caller.attrs.MaxPrio > 0 && prio > caller.attrs.MaxPrio {
		return ErrBadPriority
	}
	e.ChargeNoIntr(costDescInit)
	if to.state == threadReady {
		k.sched.removeReady(to)
		to.prio = prio
		to.state = threadSuspended
		k.sched.makeReady(to, e.Now())
		return nil
	}
	to.prio = prio
	if to.state == threadRunning && to.cpu != nil && to.exec != e {
		// Its CPU re-evaluates against the ready queues.
		to.cpu.Post(pendingResched)
	}
	return nil
}

// BlockThread forces a loaded thread to stop executing until
// ResumeThread (the paper's "force the thread to block" control).
func (k *Kernel) BlockThread(e *hw.Exec, id ObjID) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	to, ok := k.lookupThread(id)
	if !ok {
		return ErrInvalidID
	}
	if to.owner != caller && caller != k.first {
		return ErrNotOwner
	}
	if to.exec == e {
		return ErrBadArgument // use WaitSignal to block voluntarily
	}
	switch to.state {
	case threadRunning:
		k.sched.forceOffCPU(e, to)
	case threadReady:
		k.sched.removeReady(to)
		to.state = threadSuspended
	case threadWaiting:
		to.waitingSignal = false
		to.state = threadSuspended
	}
	return nil
}

// ResumeThread makes a blocked thread runnable again.
func (k *Kernel) ResumeThread(e *hw.Exec, id ObjID) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	to, ok := k.lookupThread(id)
	if !ok {
		return ErrInvalidID
	}
	if to.owner != caller && caller != k.first {
		return ErrNotOwner
	}
	if to.state == threadSuspended {
		k.sched.makeReady(to, e.Now())
	}
	return nil
}

// WaitSignal blocks the calling thread until an address-valued signal
// arrives, returning the signalled address (paper §2.2). Queued signals
// are drained before blocking.
func (k *Kernel) WaitSignal(e *hw.Exec) (uint32, error) {
	prev := k.enter(e)
	defer k.exit(e, prev)
	to := k.threadOf(e)
	if to == nil {
		return 0, ErrBadArgument
	}
	if _, ok := k.threads.get(to.slot, to.id.gen()); !ok {
		return 0, ErrInvalidID
	}
	// Charge the block path up front: after the queue re-check below
	// there must be no yield points until the thread parks, or a
	// concurrent delivery could dispatch it before it sleeps.
	e.ChargeNoIntr(hw.CostContextSave + hw.CostSchedule)
	if len(to.sigQueue) > 0 {
		v := to.sigQueue[0]
		copy(to.sigQueue, to.sigQueue[1:])
		to.sigQueue = to.sigQueue[:len(to.sigQueue)-1]
		return v, nil
	}
	to.waitingSignal = true
	to.state = threadWaiting
	k.sched.block(e, to)
	// Resumed by signal delivery.
	to.sigPending = false
	return to.sigValue, nil
}

// SetAlarm arranges for the clock device to deliver an address-valued
// signal with the given value to the thread at virtual time at. The
// clock fits the memory-based messaging model (paper §2.2): an alarm is
// a signal from the clock's device region. If the thread is unloaded by
// the time the alarm fires, the signal is dropped (its mappings went
// with it).
func (k *Kernel) SetAlarm(e *hw.Exec, id ObjID, at uint64, value uint32) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	to, ok := k.lookupThread(id)
	if !ok {
		return ErrInvalidID
	}
	if to.owner != caller && caller != k.first {
		return ErrNotOwner
	}
	slot, gen := to.slot, to.id.gen()
	e.ChargeNoIntr(costDescInit)
	a := k.takeAlarm()
	a.slot, a.gen, a.value, a.at = slot, gen, value, at
	k.MPM.Engine.ScheduleAt(at, a.fire)
	return nil
}

// alarm is one pending SetAlarm delivery: the thread's slot and
// generation, the signal value and the firing time. Records are
// recycled through the kernel's free list, and each builds its engine
// callback once, so setting an alarm allocates nothing once the list
// holds as many records as alarms are ever in flight.
type alarm struct {
	k     *Kernel
	slot  int32
	gen   uint32
	value uint32
	at    uint64
	// fire is a.deliver, built with the record.
	fire func()
}

// takeAlarm returns a free alarm record, making one if none is free.
func (k *Kernel) takeAlarm() *alarm {
	if n := len(k.alarms); n > 0 {
		a := k.alarms[n-1]
		k.alarms = k.alarms[:n-1]
		return a
	}
	a := &alarm{k: k}
	a.fire = a.deliver
	return a
}

// deliver fires the alarm: the signal reaches the thread if it is
// still loaded, and the record goes back on the free list.
func (a *alarm) deliver() {
	k := a.k
	if to, ok := k.threads.get(a.slot, a.gen); ok {
		k.deliverSignal(to, a.value, a.at, nil)
	}
	k.alarms = append(k.alarms, a)
}

// PostSignal delivers an address-valued signal directly to a thread —
// used by application kernels to redirect signals to reloaded threads
// (paper §2.3).
func (k *Kernel) PostSignal(e *hw.Exec, id ObjID, value uint32) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	caller, err := k.callerKernel(e)
	if err != nil {
		return err
	}
	to, ok := k.lookupThread(id)
	if !ok {
		return ErrInvalidID
	}
	// A thread may be signalled by its owning kernel, the first kernel,
	// or any thread of the same kernel community (sharing the kernel's
	// space or a space that kernel owns) — the same visibility LoadThread
	// grants.
	if to.owner != caller && caller != k.first &&
		to.space != caller.space && to.space.owner != caller {
		return ErrNotOwner
	}
	k.deliverSignal(to, value, e.Now(), e)
	return nil
}
