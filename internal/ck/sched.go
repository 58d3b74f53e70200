package ck

import (
	"fmt"

	"vpp/internal/hw"
)

// pendingResched is the CPU interrupt bit requesting a scheduling pass.
const pendingResched uint32 = 1 << 0

// scheduler implements the Cache Kernel's fixed-priority scheduling with
// time-sliced round-robin within each priority (paper §4.3). Application
// kernels express policy purely by loading, unloading and re-prioritizing
// threads; the scheduler only dispatches what is loaded.
type scheduler struct {
	k     *Kernel
	ready [][]*ThreadObj // index = effective priority; FIFO queues
}

func newScheduler(k *Kernel) *scheduler {
	return &scheduler{k: k, ready: make([][]*ThreadObj, NumPriorities)}
}

// effPrio computes a thread's effective priority: its loaded priority,
// demoted to the lowest level while its kernel is over its processor
// quota so it only runs on otherwise-idle processors (paper §4.3).
func (s *scheduler) effPrio(t *ThreadObj) int {
	if t.owner != nil && s.k.overQuota(t.owner) {
		return 0
	}
	return t.prio
}

// enqueue appends t to its effective-priority ready queue. t.queued
// mirrors queue membership — set here, cleared by dequeueBest,
// removeReady and Crash, kept by promoteCleared — so a double enqueue
// is a flag test, not a scan of every queue.
func (s *scheduler) enqueue(t *ThreadObj) {
	if t.queued {
		panic(fmt.Sprintf("ck: double enqueue of %v (state=%d)", t.id, t.state))
	}
	p := s.effPrio(t)
	s.ready[p] = append(s.ready[p], t)
	t.state = threadReady
	t.queued = true
}

// promoteCleared re-queues quota-demoted threads whose kernel's
// accounting window has since rolled over clean. Demotion lasts only for
// the remainder of the window (paper §4.3), but effective priority is
// evaluated at enqueue time: without this pass, a thread parked at the
// bottom level of a saturated module would keep its demoted position
// indefinitely, because nothing else rolls a kernel's window once all of
// its threads are off-CPU. (The overQuota check below performs that lazy
// roll.)
func (s *scheduler) promoteCleared() {
	q := s.ready[0]
	if len(q) == 0 {
		return
	}
	kept := q[:0]
	var moved []*ThreadObj
	for _, t := range q {
		if t.prio > 0 && t.owner != nil && !s.k.overQuota(t.owner) {
			moved = append(moved, t)
			continue
		}
		kept = append(kept, t)
	}
	s.ready[0] = kept
	for _, t := range moved {
		s.ready[t.prio] = append(s.ready[t.prio], t)
	}
}

// dequeueBest pops the highest-priority ready thread, or nil.
func (s *scheduler) dequeueBest() *ThreadObj {
	s.promoteCleared()
	for p := len(s.ready) - 1; p >= 0; p-- {
		q := s.ready[p]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		copy(q, q[1:])
		s.ready[p] = q[:len(q)-1]
		t.queued = false
		return t
	}
	return nil
}

// bestReadyPrio reports the highest non-empty ready priority, or -1.
func (s *scheduler) bestReadyPrio() int {
	s.promoteCleared()
	for p := len(s.ready) - 1; p >= 0; p-- {
		if len(s.ready[p]) > 0 {
			return p
		}
	}
	return -1
}

// removeReady deletes t from its ready queue (for unload of a ready
// thread).
func (s *scheduler) removeReady(t *ThreadObj) {
	for p := range s.ready {
		q := s.ready[p]
		for i, x := range q {
			if x == t {
				s.ready[p] = append(q[:i:i], q[i+1:]...)
				t.queued = false
				return
			}
		}
	}
}

// makeReady makes a loaded thread runnable: dispatching it directly onto
// an idle CPU, preempting a lower-priority CPU, or queueing it.
// nowHint is the virtual time of the causing event (the waker's clock or
// the engine's time); it lower-bounds the target CPU's clock.
func (s *scheduler) makeReady(t *ThreadObj, nowHint uint64) {
	if t.state == threadRunning || t.state == threadReady {
		return
	}
	// Idle CPU: dispatch immediately (charging the IPI and context
	// restore to the target CPU's clock).
	for _, cpu := range s.k.MPM.CPUs {
		if cpu.Cur == nil {
			cpu.Clock.AdvanceTo(nowHint + hw.CostIPI + hw.CostContextRestore + hw.CostSchedule)
			s.dispatch(cpu, t)
			return
		}
	}
	s.enqueue(t)
	// Preempt the lowest-priority running thread if strictly below t.
	victim := s.lowestRunning()
	if victim != nil && s.effPrio(victim) < s.effPrio(t) && victim.cpu != nil {
		victim.cpu.Post(pendingResched)
		s.k.Stats.Preemptions++
	}
}

// lowestRunning returns the running thread with the lowest effective
// priority (deterministic tie-break by CPU index), or nil.
func (s *scheduler) lowestRunning() *ThreadObj {
	var victim *ThreadObj
	for _, cpu := range s.k.MPM.CPUs {
		if cpu.Cur == nil {
			continue
		}
		t := s.k.threadOf(cpu.Cur)
		if t == nil || t.state != threadRunning {
			continue
		}
		if victim == nil || s.effPrio(t) < s.effPrio(victim) {
			victim = t
		}
	}
	return victim
}

// dispatch places t on cpu and arms a slice timer if contention exists at
// its priority level.
func (s *scheduler) dispatch(cpu *hw.CPU, t *ThreadObj) {
	t.state = threadRunning
	t.cpu = cpu
	t.dispatchedAt = cpu.Clock.Now()
	t.exec.Space = t.space.hw
	t.exec.User = t
	s.k.Stats.ContextSwitches++
	if t.queued {
		panic(fmt.Sprintf("ck: dispatching queued thread %v (state=%d)", t.id, t.state))
	}
	if t.exec.Coro().Runnable() {
		panic(fmt.Sprintf("ck: dispatch of running thread %v (state=%d)", t.id, t.state))
	}
	cpu.Dispatch(t.exec)
	// The slice timer fires unconditionally so long-running threads are
	// periodically accounted against their kernel's quota even without
	// same-priority contention.
	cpu.ArmTimerAt(cpu.Clock.Now() + timeSlice)
	if len(s.k.observers) != 0 {
		s.k.Emit(Event{At: cpu.Clock.Now(), Kind: EvDispatch, Obj: t.id, A: uint64(cpu.Index),
			Name: t.exec.Name, NameID: t.exec.Coro().NameID()})
	}
}

// dispatchNext fills a free CPU with the best ready thread, if any. It
// may be called from any context (the CPU must have Cur == nil).
func (s *scheduler) dispatchNext(cpu *hw.CPU) {
	if next := s.dequeueBest(); next != nil {
		s.dispatch(cpu, next)
	}
}

// undispatch records accounting for a thread leaving its CPU.
func (s *scheduler) undispatch(t *ThreadObj) {
	if t.cpu == nil {
		return
	}
	delta := t.cpu.Clock.Now() - t.dispatchedAt
	s.k.accountUsage(t, delta)
	t.cpu = nil
}

// onResched runs in the current thread's context when its CPU takes a
// rescheduling interrupt: rotate the thread to the back of its priority
// level (or suspend it if a forced unload is pending) and run the best
// ready thread.
func (s *scheduler) onResched(e *hw.Exec) {
	cur := s.k.threadOf(e)
	if cur == nil || cur.state != threadRunning {
		return
	}
	cpu := e.CPU
	// Account the elapsed slice against the owning kernel's quota.
	if cpu != nil {
		now := cpu.Clock.Now()
		s.k.accountUsage(cur, now-cur.dispatchedAt)
		cur.dispatchedAt = now
	}
	best := s.bestReadyPrio()
	keep := !cur.forceOff && (best < 0 || best < s.effPrio(cur))
	if keep {
		if cpu != nil {
			cpu.ArmTimerAt(cpu.Clock.Now() + timeSlice)
		}
		return
	}
	// Charge the whole switch (save, schedule, and the incoming thread's
	// restore, which this CPU performs) before publishing any state
	// change: every charge is a yield point, and once the thread is
	// visible in the ready queue another processor may dispatch it.
	e.ChargeNoIntr(hw.CostContextSave + hw.CostSchedule +
		hw.CostContextRestore + hw.CostSpaceSwitch)
	s.undispatch(cur)
	if cur.forceOff {
		cur.state = threadSuspended
		cur.forceOff = false
	} else {
		s.enqueue(cur)
	}
	next := s.dequeueBest()
	if next == cur {
		// The other ready threads were dispatched elsewhere while this
		// switch was being charged: the rotation is vacuous; keep the
		// CPU.
		cur.state = threadRunning
		cur.cpu = cpu
		cur.dispatchedAt = cpu.Clock.Now()
		cpu.ArmTimerAt(cpu.Clock.Now() + timeSlice)
		return
	}
	if cpu.Cur == e {
		cpu.Cur = nil
	}
	e.CPU = nil
	if next != nil {
		s.dispatch(cpu, next)
	}
	e.Ctx().Park()
	// Resumed: some CPU has dispatched this thread again.
}

// block parks the current thread. The caller must have charged the
// context-switch cost and set the thread's blocking state with no
// charge points in between: a charge is a yield point at which another
// processor could observe the blocking state and dispatch the thread
// before it has parked.
func (s *scheduler) block(e *hw.Exec, t *ThreadObj) {
	cpu := e.CPU
	s.undispatch(t)
	if cpu != nil && cpu.Cur == e {
		cpu.Cur = nil
	}
	e.CPU = nil
	if cpu != nil {
		s.dispatchNext(cpu)
	}
	// A blocked call rests at a consistent point: leave it (for the
	// in-flight accounting CheckInvariants keys on) while parked, or a
	// thread sleeping in wait-signal would suppress checking forever.
	s.k.inCalls--
	e.Ctx().Park()
	s.k.inCalls++
}

// blockUnloaded releases the CPU of an execution whose thread descriptor
// was just unloaded and parks it until an application kernel reloads a
// thread descriptor for it and the scheduler redispatches.
func (s *scheduler) blockUnloaded(e *hw.Exec) {
	cpu := e.CPU
	if cpu != nil && cpu.Cur == e {
		cpu.Cur = nil
	}
	e.CPU = nil
	if cpu != nil {
		s.dispatchNext(cpu)
	}
	// See block: the unloaded thread's call is consistent while parked.
	s.k.inCalls--
	e.Ctx().Park()
	s.k.inCalls++
}

// forceOffCPU removes a running thread from its CPU from another
// execution's context, spinning in virtual time until it has parked.
func (s *scheduler) forceOffCPU(e *hw.Exec, t *ThreadObj) {
	for t.state == threadRunning {
		if t.cpu != nil {
			t.forceOff = true
			t.cpu.Post(pendingResched)
			e.Charge(hw.CostIPI)
		}
		e.Charge(hw.CostInstr * 8)
	}
}
