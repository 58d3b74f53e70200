package ck

import (
	"fmt"

	"vpp/internal/hw"
)

// Access-error forwarding (paper §2.1, Figure 2). On a fault the Cache
// Kernel saves the thread state, switches the thread to its owning
// application kernel's address space and exception stack, and starts it
// in the kernel's fault handler. The handler loads whatever mapping its
// policy selects (possibly evicting another), then resumes the thread —
// either with the separate resume call or the combined
// load-mapping-and-resume optimization.

// AccessError implements hw.Supervisor. It runs in the faulting thread's
// context; when it returns, the hardware retries the access.
func (k *Kernel) AccessError(e *hw.Exec, va uint32, write bool, f hw.Fault) {
	k.Stats.Faults++
	so := k.spaceOf(e.Space)
	if so == nil {
		panic(fmt.Sprintf("ck: fault in unknown space (exec %q, va %#x)", e.Name, va))
	}
	owner := so.owner
	th := k.threadOf(e)
	if owner.attrs.Fault == nil {
		panic(fmt.Sprintf("ck: kernel %q has no fault handler (exec %q, va %#x, %v)",
			owner.attrs.Name, e.Name, va, f))
	}
	if owner.space == nil {
		panic(fmt.Sprintf("ck: kernel %q has no designated space for fault handling", owner.attrs.Name))
	}

	k.emit(e, Event{Kind: EvFault, Obj: so.id, A: uint64(va), B: uint64(f), Name: e.Name})
	// Steps 1-2: save state, switch to the application kernel's space
	// and exception stack, start the handler.
	e.ChargeNoIntr(costFaultTransfer)
	k.emit(e, Event{Kind: EvForward, Name: owner.attrs.Name})
	prevSpace, prevMode := e.Space, e.Mode
	e.Space = owner.space.hw
	e.Mode = hw.ModeKernel
	var tid ObjID
	if th != nil {
		tid = th.id
		th.faultDepth++
		th.optResumed = false
	}

	resume := owner.attrs.Fault(e, tid, so.id, va, write, f)
	var resumed uint64
	if resume {
		resumed = 1
	}
	k.emit(e, Event{Kind: EvHandled, A: resumed})

	if th != nil {
		th.faultDepth--
	}
	e.Space = k.currentSpaceFor(e, prevSpace)
	e.Mode = prevMode
	if !resume {
		// The handler abandoned the thread (for example after posting
		// a SEGV-style signal that terminated the process): unload its
		// descriptor and end the execution.
		if th != nil {
			if _, ok := k.threads.get(th.slot, th.id.gen()); ok {
				func() {
					// Mutates across charge points outside the trap
					// bracket: count the reclaim in flight.
					k.inCalls++
					defer func() { k.inCalls-- }()
					k.reclaimThread(e, th, false, true)
				}()
			}
		}
		e.Exit()
	}
	// Step 5-6: resume. The combined call already charged the return
	// path; a plain handler pays the separate resume-from-exception
	// trap.
	if th == nil || !th.optResumed {
		e.ChargeNoIntr(hw.CostTrapEntry + costFaultResume + hw.CostTrapExit)
	}
}

// RunAsUser executes fn with e switched into the given loaded space in
// user mode — how an application kernel resumes a faulting thread at a
// user-specified signal handler instead of loading a mapping (paper
// §2.1: the emulator "resumes the thread at the address corresponding
// to the user-specified UNIX signal handler"). Traps issued by fn are
// forwarded like any other user-mode traps.
func (k *Kernel) RunAsUser(e *hw.Exec, sid ObjID, fn func()) error {
	so, ok := k.lookupSpace(sid)
	if !ok {
		return ErrInvalidID
	}
	prevSpace, prevMode := e.Space, e.Mode
	e.Space = so.hw
	e.Mode = hw.ModeUser
	e.ChargeNoIntr(costFaultResume)
	fn()
	e.Space = k.currentSpaceFor(e, prevSpace)
	e.Mode = prevMode
	return nil
}

// LoadMappingAndResume is the combined call that loads a new mapping and
// returns from the exception handler in one trap — the optimized
// mapping-load path of Table 2. The handler must return true
// immediately after calling it.
func (k *Kernel) LoadMappingAndResume(e *hw.Exec, sid ObjID, spec MappingSpec) error {
	prev := k.enter(e)
	defer k.exit(e, prev)
	if err := k.loadMapping(e, sid, spec); err != nil {
		return err
	}
	k.emit(e, Event{Kind: EvLoadResume, A: uint64(spec.VA), B: uint64(spec.PFN)})
	e.ChargeNoIntr(costMappingLoadOptExtra)
	if th := k.threadOf(e); th != nil && th.faultDepth > 0 {
		th.optResumed = true
	}
	return nil
}
