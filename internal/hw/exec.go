package hw

import (
	"fmt"

	"vpp/internal/pagetable"
	"vpp/internal/sim"
)

// Space is the hardware view of an address space: a translation tree plus
// the address-space identifier tagging its TLB entries.
type Space struct {
	Table *pagetable.Table
	ASID  uint16
}

// Regs is the architectural register state the Cache Kernel saves into a
// thread descriptor. The simulation only needs a few registers: the
// remaining machine state of a thread is its (parked) coroutine.
type Regs struct {
	PC uint32
	SP uint32
	A0 uint32 // argument / result register
	A1 uint32
}

// Exec is a simulated execution context: the "real" thread of control
// behind a Cache Kernel thread object, or a device engine. It persists
// across Cache Kernel load/unload of its thread descriptor (the parked
// coroutine is the register state the descriptor caches).
type Exec struct {
	Name string
	MPM  *MPM

	// Space is the current translation context. Nil contexts (devices,
	// early boot) may only use physical accesses.
	Space *Space

	// Mode is the current protection level.
	Mode Mode

	// Regs is the live register file.
	Regs Regs

	// User carries the supervisor layer's thread object.
	User any

	// CPU is the processor the context is dispatched on, nil if not
	// running.
	CPU *CPU

	coro     *sim.Coro
	ctx      *sim.Ctx
	devClock *sim.Clock // non-nil for device executions
	finished bool
	killed   bool
}

type execExit struct{ e *Exec }

// NewExec creates an execution context whose coroutine runs body when
// first dispatched. The supervisor's Exited hook runs when body returns
// or the context calls Exit, but not when Machine.Close releases the
// context: a released execution has not exited, its machine has ended.
func (m *MPM) NewExec(name string, body func(*Exec)) *Exec {
	e := &Exec{Name: name, MPM: m, Mode: ModeUser}
	e.coro = m.Engine.NewCoro(name, func(ctx *sim.Ctx) {
		e.ctx = ctx
		defer func() {
			if r := recover(); r != nil {
				// A real panic, or the release signal of a closed
				// machine: either keeps unwinding past the exit
				// bookkeeping.
				x, ok := r.(execExit)
				if !ok || x.e != e {
					panic(r)
				}
			}
			e.finished = true
			if e.CPU != nil && e.CPU.Cur == e {
				e.CPU.Cur = nil
			}
			if m.Sup != nil {
				m.Sup.Exited(e)
			}
		}()
		body(e)
	})
	return e
}

// NewDeviceExec creates an execution context with its own clock (a DMA or
// protocol engine rather than a thread on a CPU) and makes it runnable.
func (m *MPM) NewDeviceExec(name string, body func(*Exec)) *Exec {
	e := m.NewExec(name, body)
	e.Mode = ModeSupervisor
	e.devClock = sim.NewClock(name)
	m.Engine.UnparkOn(e.coro, e.devClock)
	return e
}

// Wake unparks a parked device execution onto its own clock, advancing
// it to at least the engine's current time. Device callbacks (frame
// arrival, timer) use it; waking an already-runnable or finished
// execution is a no-op.
func (e *Exec) Wake() {
	if e.devClock == nil || e.finished || e.coro.Runnable() {
		return
	}
	eng := e.MPM.Engine
	e.devClock.AdvanceTo(eng.Now())
	eng.UnparkOn(e.coro, e.devClock)
}

// Coro exposes the underlying coroutine for dispatch bookkeeping.
func (e *Exec) Coro() *sim.Coro { return e.coro }

// Ctx returns the live simulation context; only valid while running.
func (e *Exec) Ctx() *sim.Ctx { return e.ctx }

// Finished reports whether the context's body has returned.
func (e *Exec) Finished() bool { return e.finished }

// Now reports the context's current virtual time in cycles.
func (e *Exec) Now() uint64 { return e.ctx.Now() }

// Exit terminates the context immediately (from any call depth).
func (e *Exec) Exit() { panic(execExit{e}) }

// Kill marks a running context for destruction: at its next charge
// point it unwinds as if its body had returned. A reset wipes the
// register file, so a killed context cannot be resumed — only a fresh
// context can rerun its program. The Cache Kernel's crash path kills
// whatever was executing on the MPM's CPUs.
//
//ckvet:allow chargepath a reset line is asynchronous hardware, not an instruction; the victim is charged nothing
func (e *Exec) Kill() { e.killed = true }

// Charge advances virtual time by cycles and then delivers any pending
// interrupts latched on the current CPU. The test is inline because
// almost every charge finds none.
func (e *Exec) Charge(cycles uint64) {
	e.ctx.Advance(cycles)
	if e.killed {
		e.Exit()
	}
	if c := e.CPU; c != nil && c.Pending != 0 && !c.IntrOff {
		e.pollInterrupts(c)
	}
}

// ChargeNoIntr advances virtual time without an interrupt window (used
// inside the supervisor's critical sections).
func (e *Exec) ChargeNoIntr(cycles uint64) {
	e.ctx.Advance(cycles)
	if e.killed {
		e.Exit()
	}
}

// pollInterrupts delivers the causes pending on c, the unmasked CPU
// the context runs on.
func (e *Exec) pollInterrupts(c *CPU) {
	sup := e.MPM.Sup
	if sup == nil {
		c.Pending = 0
		return
	}
	p := c.Pending
	c.Pending = 0
	sup.Interrupt(e, p)
}

// Instr charges n ordinary instructions.
func (e *Exec) Instr(n int) { e.Charge(uint64(n) * CostInstr) }

// Park suspends the context (releasing its CPU) until redispatched.
//
//ckvet:allow chargepath parking is free at the hardware layer; the supervisor charges CostContextSave/CostSchedule around it
func (e *Exec) Park() {
	if c := e.CPU; c != nil && c.Cur == e {
		c.Cur = nil
	}
	e.CPU = nil
	e.ctx.Park()
}

// --- Physical memory access (supervisor and devices) ---

// PhysRead32 reads a word at physical address pa, charging cache costs.
func (e *Exec) PhysRead32(pa uint32) uint32 {
	e.Charge(e.MPM.L2.Access(pa))
	return e.MPM.Machine.Phys.Read32(pa)
}

// PhysWrite32 writes a word at physical address pa, charging cache costs.
func (e *Exec) PhysWrite32(pa, v uint32) {
	e.Charge(e.MPM.L2.Access(pa))
	e.MPM.Machine.Phys.Write32(pa, v)
}

// --- Virtual memory access (user and application-kernel code) ---

// Load32 reads the word at virtual address va through the MMU; it may
// fault into the supervisor and retry.
func (e *Exec) Load32(va uint32) uint32 {
	pa, _ := e.Translate(va, false)
	e.Charge(e.MPM.L2.Access(pa))
	return e.MPM.Machine.Phys.Read32(pa)
}

// Store32 writes the word at virtual address va through the MMU. Writes
// to message-mode pages invoke the supervisor's signal-on-write hook
// after the data is globally visible, as the ParaDiGM cache controller
// did.
func (e *Exec) Store32(va, v uint32) {
	pa, pte := e.Translate(va, true)
	e.Charge(e.MPM.L2.Access(pa))
	e.MPM.Machine.Phys.Write32(pa, v)
	if pte.Message() && e.MPM.Sup != nil {
		e.MPM.Sup.MessageWrite(e, va, pa)
	}
}

// Load8 reads one byte at va.
func (e *Exec) Load8(va uint32) byte {
	pa, _ := e.Translate(va, false)
	e.Charge(e.MPM.L2.Access(pa))
	return e.MPM.Machine.Phys.Read8(pa)
}

// Store8 writes one byte at va.
func (e *Exec) Store8(va uint32, v byte) {
	pa, pte := e.Translate(va, true)
	e.Charge(e.MPM.L2.Access(pa))
	e.MPM.Machine.Phys.Write8(pa, v)
	if pte.Message() && e.MPM.Sup != nil {
		e.MPM.Sup.MessageWrite(e, va, pa)
	}
}

// Touch performs a read access for its translation and cache effects
// only, as workload generators do when simulating data references.
func (e *Exec) Touch(va uint32, write bool) {
	pa, pte := e.Translate(va, write)
	e.Charge(e.MPM.L2.Access(pa))
	if write && pte.Message() && e.MPM.Sup != nil {
		e.MPM.Sup.MessageWrite(e, va, pa)
	}
}

// Translate resolves va to a physical address, consulting the TLB, then
// the hardware table walker, then (on failure) the supervisor's access
// error path — which, as in the paper, forwards to the owning application
// kernel and retries when it returns.
func (e *Exec) Translate(va uint32, write bool) (uint32, pagetable.PTE) {
	if e.Space == nil {
		panic(fmt.Sprintf("hw: %s: virtual access %#x with no address space", e.Name, va))
	}
	for tries := 0; ; tries++ {
		if tries > 1<<20 {
			panic(fmt.Sprintf("hw: %s: unresolvable fault at %#x", e.Name, va))
		}
		cpu := e.CPU
		if cpu == nil {
			panic(fmt.Sprintf("hw: %s: virtual access %#x while not on a CPU", e.Name, va))
		}
		e.Charge(CostInstr)
		sp := e.Space
		vpn := va >> PageShift
		// The TLB's latest hit answers a repeat of its page without the
		// index probe (see TLB.last). Only the pure hit is taken: a
		// first write through a clean entry, or a permission mismatch,
		// takes the full path, so the charges and counts stay those of
		// a Lookup.
		if l := cpu.TLB.last; l.valid && l.vpn == vpn && l.asid == sp.ASID {
			if pte := l.pte; pte.Valid() && (!write || pte.Writable() && pte&pagetable.PTEModified != 0) {
				cpu.TLB.Hits++
				return pte.PFN()<<PageShift | va&(PageSize-1), pte
			}
		}
		pte, hit := cpu.TLB.Lookup(sp.ASID, vpn)
		if hit && pte.Valid() && (!write || pte.Writable()) {
			if write && pte&pagetable.PTEModified == 0 {
				// First write through a clean entry: the 68040
				// re-walks to set the modified bit.
				sp.Table.SetRM(va, true)
				cpu.TLB.Insert(sp.ASID, vpn, pte|pagetable.PTEModified)
				e.Charge(CostMemHit + CostTLBFillPerLevel)
				pte |= pagetable.PTEModified
			}
			return pte.PFN()<<PageShift | va&(PageSize-1), pte
		}
		if hit {
			// Permission mismatch: drop the stale entry and re-walk.
			cpu.TLB.InvalidatePage(sp.ASID, vpn)
		}
		// Hardware table walk.
		depth := sp.Table.WalkDepth(va)
		for i := 0; i < depth; i++ {
			e.Charge(CostMemHit + CostTLBFillPerLevel)
		}
		if f := e.MPM.WalkFault; f != nil && f(e, va) {
			// Transient walk error (a parity hit during the table
			// walk): the hardware retries the walk from the root.
			continue
		}
		wpte, ok := sp.Table.Lookup(va)
		if ok && (!write || wpte.Writable()) {
			sp.Table.SetRM(va, write)
			if write {
				wpte |= pagetable.PTEModified
			}
			cpu.TLB.Insert(sp.ASID, vpn, wpte|pagetable.PTEReferenced)
			continue
		}
		kind := FaultMapping
		if ok {
			kind = FaultProtection
		}
		if e.MPM.Sup == nil {
			panic(fmt.Sprintf("hw: %s: %v fault at %#x with no supervisor", e.Name, kind, va))
		}
		e.MPM.Sup.AccessError(e, va, write, kind)
	}
}

// SetSpace switches the context's translation root, charging the
// hardware's root-pointer reload cost.
func (e *Exec) SetSpace(s *Space) {
	e.Space = s
	e.Charge(CostSpaceSwitch)
}

// Trap executes a trap instruction: enter supervisor mode, run the
// supervisor's system-call dispatcher, return to the previous mode.
func (e *Exec) Trap(no uint32, args ...uint32) (uint32, uint32) {
	if e.MPM.Sup == nil {
		panic("hw: trap with no supervisor")
	}
	prev := e.Mode
	e.Mode = ModeSupervisor
	e.Charge(CostTrapEntry)
	r0, r1 := e.MPM.Sup.Syscall(e, no, args)
	e.Charge(CostTrapExit)
	e.Mode = prev
	return r0, r1
}
