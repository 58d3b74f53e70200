package ck

import (
	"fmt"

	"vpp/internal/hw"
)

// Stats holds the Cache Kernel's own event counts, incremented where
// each event happens; Counters reads them with the cache and hardware
// counts. A crash is counted by Kernel.Epoch, and injected faults by the
// injector that decides them (internal/chaos).
type Stats struct {
	KernelLoads, KernelUnloads, KernelWritebacks uint64
	SpaceLoads, SpaceUnloads, SpaceWritebacks    uint64
	ThreadLoads, ThreadUnloads, ThreadWritebacks uint64
	MappingLoads, MappingUnloads                 uint64
	MappingWritebacks                            uint64

	Faults         uint64
	TrapsForwarded uint64

	SignalsGenerated uint64
	SignalsFast      uint64 // delivered via reverse-TLB hit
	SignalsTwoStage  uint64 // delivered via pmap double lookup
	SignalsQueued    uint64
	SignalsDropped   uint64

	ContextSwitches uint64
	Preemptions     uint64
	QuotaDemotions  uint64
}

// SignalVerdict is a fault injector's decision about one signal
// delivery: lose the inter-processor notification, or deliver it twice.
type SignalVerdict struct {
	Drop bool
	Dup  bool
}

// Kernel is one Cache Kernel instance: the supervisor-mode object cache
// serving all application kernels of one MPM.
type Kernel struct {
	MPM *hw.MPM
	Cfg Config

	kernels *objCache[*KernelObj]
	spaces  *objCache[*SpaceObj]
	threads *objCache[*ThreadObj]
	pm      *pmap

	// pmVersion supports the non-blocking-synchronization style version
	// checks the reverse-TLB relies on (paper §4.1-4.2).
	pmVersion uint64

	first *KernelObj
	sched *scheduler
	rtlbs []*rtlb

	// inCalls counts Cache Kernel operations currently in flight on any
	// processor. Kernel calls yield at every cycle charge, so another
	// execution (or an external observer such as the simulation harness)
	// can run while a call is parked mid-mutation; the structural
	// invariants only hold between calls, and CheckInvariants uses this
	// counter to refuse to judge intermediate states.
	inCalls int

	// observers receive the typed event stream (Observe, event.go).
	observers []func(Event)

	// alarms holds the free alarm records (SetAlarm). A crash leaves
	// it alone: a record in flight still fires and finds its thread's
	// generation gone.
	alarms []*alarm

	// Epoch counts crash-reboots of this Cache Kernel instance. It is
	// never reset: together with the preserved slot generations it keeps
	// every pre-crash identifier invalid after recovery.
	Epoch uint64

	// SignalFault, when non-nil, may drop or duplicate each signal
	// delivery (internal/chaos). Nil costs nothing.
	SignalFault func(to ObjID, value uint32) SignalVerdict

	// WritebackFault, when non-nil, is consulted before each writeback
	// delivery to an application kernel; returning true corrupts the
	// writeback — the descriptor is reclaimed but its state never
	// reaches the owner (internal/chaos). Nil costs nothing.
	WritebackFault func(kind string, id ObjID) bool

	Stats Stats
}

// descriptor RAM accounted at boot, per Table 1 sizes.
func descriptorBytes(cfg Config) int {
	return cfg.KernelSlots*KernelObjBytes +
		cfg.SpaceSlots*SpaceObjBytes +
		cfg.ThreadSlots*ThreadObjBytes +
		cfg.MappingSlots*MappingObjBytes +
		cfg.PMapBuckets*4
}

// New creates a Cache Kernel for mpm, allocating its descriptor caches
// from the MPM's local RAM and installing itself as the supervisor.
func New(mpm *hw.MPM, cfg Config) (*Kernel, error) {
	cfg = cfg.withDefaults()
	if !mpm.LocalRAM.Alloc(descriptorBytes(cfg)) {
		return nil, fmt.Errorf("ck: descriptor caches (%d bytes) exceed local RAM", descriptorBytes(cfg))
	}
	k := &Kernel{
		MPM:     mpm,
		Cfg:     cfg,
		kernels: newObjCache[*KernelObj]("kernels", cfg.KernelSlots),
		spaces:  newObjCache[*SpaceObj]("spaces", cfg.SpaceSlots),
		threads: newObjCache[*ThreadObj]("threads", cfg.ThreadSlots),
		pm:      newPMap(cfg.MappingSlots, cfg.PMapBuckets),
	}
	k.sched = newScheduler(k)
	for range mpm.CPUs {
		k.rtlbs = append(k.rtlbs, newRTLB(cfg.RTLBEntries))
	}
	mpm.Sup = k
	return k, nil
}

// enter charges the trap into the Cache Kernel for a directly invoked
// operation and returns the previous mode.
func (k *Kernel) enter(e *hw.Exec) hw.Mode {
	prev := e.Mode
	e.Mode = hw.ModeSupervisor
	k.inCalls++
	e.ChargeNoIntr(hw.CostTrapEntry)
	return prev
}

// exit charges the return from the Cache Kernel and restores mode.
// Every Cache Kernel operation funnels through here, so builds tagged
// ckinvariants verify the full dependency-model state on each return.
// A call unwound by Machine.Close is not returning: its machine has
// ended, possibly mid-mutation, and there is nothing left to verify.
func (k *Kernel) exit(e *hw.Exec, prev hw.Mode) {
	// Leave the call before checking: a solo call still self-validates,
	// while calls parked mid-mutation on other processors suppress the
	// check (their intermediate states are legitimate — see CheckInvariants).
	k.inCalls--
	if invariantsEnabled && !e.Ctx().Released() {
		if err := k.CheckInvariants(); err != nil {
			panic("ckinvariants: " + err.Error())
		}
	}
	e.Mode = prev
	e.Charge(hw.CostTrapExit)
}

// spaceOf returns the loaded space whose hardware view is sp, or nil.
// A space's ASID is its slot plus one (newSpaceObj), so the slot names
// the only candidate; the pointer comparison rejects an hw.Space that
// slot no longer holds — a stale view of an unloaded space, or another
// Cache Kernel's — so it never acts with the authority of the space
// loaded there now. The lookup counts no cache hit: it resolves an
// execution's context, not an identifier.
func (k *Kernel) spaceOf(sp *hw.Space) *SpaceObj {
	if sp == nil {
		return nil
	}
	if so, ok := k.spaces.peek(int32(sp.ASID) - 1); ok && so.hw == sp {
		return so
	}
	return nil
}

// callerKernel resolves the application kernel on whose behalf e runs:
// code executing in a kernel's designated address space acts as that
// kernel (the forwarded-handler case); otherwise the thread's owner.
func (k *Kernel) callerKernel(e *hw.Exec) (*KernelObj, error) {
	if so := k.spaceOf(e.Space); so != nil && so.kernel != nil {
		return so.kernel, nil
	}
	th, _ := e.User.(*ThreadObj)
	if th == nil || th.owner == nil {
		return nil, fmt.Errorf("ck: execution %q has no owning kernel", e.Name)
	}
	return th.owner, nil
}

// threadOf returns e's thread object, or nil for non-thread executions.
func (k *Kernel) threadOf(e *hw.Exec) *ThreadObj {
	th, _ := e.User.(*ThreadObj)
	return th
}

// lookupKernel validates a kernel object identifier.
func (k *Kernel) lookupKernel(id ObjID) (*KernelObj, bool) {
	if id.Type() != ObjKernel {
		return nil, false
	}
	ko, ok := k.kernels.get(int32(id.slot()), id.gen())
	return ko, ok
}

// lookupSpace validates an address-space identifier.
func (k *Kernel) lookupSpace(id ObjID) (*SpaceObj, bool) {
	if id.Type() != ObjSpace {
		return nil, false
	}
	so, ok := k.spaces.get(int32(id.slot()), id.gen())
	return so, ok
}

// lookupThread validates a thread identifier.
func (k *Kernel) lookupThread(id ObjID) (*ThreadObj, bool) {
	if id.Type() != ObjThread {
		return nil, false
	}
	to, ok := k.threads.get(int32(id.slot()), id.gen())
	return to, ok
}

// Loaded reports whether an identifier currently names a loaded object.
// Identifier failure is an ordinary caching-model event, so this query
// exists for observers (debuggers, tools) rather than kernels, which
// just retry.
func (k *Kernel) Loaded(id ObjID) bool {
	switch id.Type() {
	case ObjKernel:
		_, ok := k.lookupKernel(id)
		return ok
	case ObjSpace:
		_, ok := k.lookupSpace(id)
		return ok
	case ObjThread:
		_, ok := k.lookupThread(id)
		return ok
	}
	return false
}

// InFlight reports the number of Cache Kernel operations currently in
// flight on this instance's processors (calls parked mid-mutation at a
// charge point). Migration quiesces on it: a swap that starts while
// InFlight is zero observes every descriptor at rest. Blocked calls
// release the count while parked, so the gate cannot deadlock against
// threads waiting on signals.
func (k *Kernel) InFlight() int { return k.inCalls }

// CurrentThread reports the calling execution's loaded thread
// identifier, or zero for non-thread executions.
func (k *Kernel) CurrentThread(e *hw.Exec) ObjID {
	th := k.threadOf(e)
	if th == nil {
		return 0
	}
	if _, ok := k.threads.get(th.slot, th.id.gen()); !ok {
		return 0
	}
	return th.id
}

// FirstKernel reports the first (system resource manager) kernel object.
func (k *Kernel) FirstKernel() ObjID {
	if k.first == nil {
		return 0
	}
	return k.first.id
}

// bumpVersion records a physical-memory-map mutation, invalidating
// reverse-TLB entries that cached derived state.
func (k *Kernel) bumpVersion() { k.pmVersion++ }

// --- hw.Supervisor implementation ---

// Syscall implements trap dispatch: a trap from a thread executing inside
// its application kernel's own address space is a Cache Kernel call;
// any other trap is forwarded to the kernel owning the current space
// (paper §2.3).
func (k *Kernel) Syscall(e *hw.Exec, no uint32, args []uint32) (uint32, uint32) {
	so := k.spaceOf(e.Space)
	if so == nil {
		panic(fmt.Sprintf("ck: trap from %q in unknown space", e.Name))
	}
	owner := so.owner
	th := k.threadOf(e)
	if so.kernel != nil {
		// Executing inside an application kernel's own address space:
		// the trap is a Cache Kernel call. Kernels make their calls
		// through the Go API, so no call has a trap number.
		return ^uint32(0), 0
	}
	// Forward to the owning application kernel.
	k.Stats.TrapsForwarded++
	if owner.attrs.Trap == nil {
		return ^uint32(0), 0
	}
	var tid ObjID
	if th != nil {
		tid = th.id
	}
	e.ChargeNoIntr(costTrapForward)
	prevSpace, prevMode := e.Space, e.Mode
	e.Space = owner.space.hw
	e.Mode = hw.ModeKernel
	r0, r1 := owner.attrs.Trap(e, tid, no, args)
	e.ChargeNoIntr(costTrapReturn)
	e.Space = k.currentSpaceFor(e, prevSpace)
	e.Mode = prevMode
	return r0, r1
}

// currentSpaceFor resolves the space an execution should return to after
// kernel-mode processing. Normally that is the saved space, but the
// thread may have been unloaded and reloaded while blocked inside the
// handler (sleep, swap): then its descriptor — and possibly its address
// space object — are new, and the hardware context is rebuilt from the
// current thread descriptor, exactly as a real resume would reload the
// translation root from the (new) descriptor.
func (k *Kernel) currentSpaceFor(e *hw.Exec, saved *hw.Space) *hw.Space {
	th := k.threadOf(e)
	if th == nil {
		return saved
	}
	if _, ok := k.threads.get(th.slot, th.id.gen()); !ok {
		return saved
	}
	return th.space.hw
}

// Interrupt handles latched CPU interrupt causes.
func (k *Kernel) Interrupt(e *hw.Exec, pending uint32) {
	if pending&pendingResched != 0 {
		k.sched.onResched(e)
	}
}

// TimerTick fires in engine context when a CPU's slice timer expires.
func (k *Kernel) TimerTick(c *hw.CPU) {
	c.Post(pendingResched)
}

// Exited handles an execution whose body returned: its thread descriptor
// is released and the CPU rescheduled.
//
//ckvet:allow chargepath the exiting context is gone; reclaim charges on the reclaim path and dispatchNext charges the next thread
func (k *Kernel) Exited(e *hw.Exec) {
	// Not a trapped call, but the reclaim below mutates across charge
	// points all the same: count it in flight.
	k.inCalls++
	defer func() { k.inCalls-- }()
	cpu := e.CPU
	if th := k.threadOf(e); th != nil {
		if _, ok := k.threads.get(th.slot, th.id.gen()); ok {
			k.reclaimThread(e, th, false, true)
		}
	}
	e.CPU = nil
	// The hardware freed the CPU before calling this hook, and the
	// reclaim above charges cycles (signal-mapping flushes) — yield
	// points at which another processor's scheduler may dispatch onto
	// the freed CPU. Only fill it if it is still idle.
	if cpu != nil && cpu.Cur == nil {
		k.sched.dispatchNext(cpu)
	}
}
