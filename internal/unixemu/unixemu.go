// Package unixemu is a UNIX emulator application kernel for the V++
// Cache Kernel reproduction (paper Section 2's running example). It
// provides processes with stable pids on top of Cache-Kernel address
// spaces and threads whose identifiers change across reload, demand
// paging from a RAM-disk backing store, a priority-adjusting scheduler
// thread, sleeping via thread unload/reload, swapping of idle
// processes, and a UNIX-like system call interface reached through the
// trap-forwarding path.
//
// One deliberate substitution: programs are Go closures registered in a
// program table, so process creation is spawn/exec-style rather than
// fork() — a parked Go closure cannot be duplicated the way a page-table
// copy can. Copy-on-write address-space copying is still exercised by
// the deferred-copy mapping tests; see DESIGN.md.
package unixemu

import (
	"fmt"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
)

// System call numbers (V7-flavoured where it matters).
const (
	SysExit   = 1
	SysRead   = 3
	SysWrite  = 4
	SysOpen   = 5
	SysClose  = 6
	SysWait   = 7
	SysCreat  = 8
	SysSbrk   = 17
	SysGetpid = 20
	SysSleep  = 35
	SysKill   = 37
	SysSpawn  = 59 // exec-flavoured: start a registered program
	SysYield  = 158
)

// Errno values returned in r1 when r0 is ^uint32(0).
const (
	EOK    = 0
	EPERM  = 1
	ENOENT = 2
	ESRCH  = 3
	EBADF  = 9
	ECHILD = 10
	ENOMEM = 12
	EFAULT = 14
	EINVAL = 22
	ENFILE = 23
	EMFILE = 24
	ENOSPC = 28
)

// Program is the body of a user process. Its only interface to the
// system is the ProcEnv, whose methods issue real trap instructions.
type Program func(env *ProcEnv)

// The emulator's process-table and scheduling policy.
const (
	// maxProcs bounds the process table.
	maxProcs = 64
	// schedInterval is the scheduler thread's rescheduling interval in
	// cycles: 20 ms.
	schedInterval = 20_000 * hw.CyclesPerMicrosecond
	// swapAfter is the number of scheduler intervals a process must
	// stay asleep before the swapper unloads its address space.
	swapAfter = 4
	// userPrio and maxUserPrio bound user process priorities.
	userPrio    = 16
	maxUserPrio = 30
)

// Unix is one UNIX emulator instance running as an application kernel.
type Unix struct {
	AK *aklib.AppKernel
	K  *ck.Kernel

	FS *RamFS

	procs   map[int]*Proc
	nextPID int

	programs map[string]Program

	schedThread *aklib.Thread
	schedExec   *hw.Exec
	sleepQ      []*sleeper
	stopSched   bool
	deadSpaces  []ck.ObjID

	// Console accumulates writes to file descriptors 1 and 2.
	Console []byte

	// Stats for the evaluation harness.
	Syscalls    uint64
	Wakeups     uint64
	SwapsOut    uint64
	SwapsIn     uint64
	Segvs       uint64
	Reschedules uint64
	// Restarts counts processes rerun from their program start after a
	// Cache Kernel crash destroyed their running execution context.
	Restarts uint64
}

type sleeper struct {
	deadline uint64
	proc     *Proc
}

// New creates an emulator bound to a launched application kernel. Call
// it inside the kernel's main thread, then Run.
func New(ak *aklib.AppKernel) *Unix {
	u := &Unix{
		AK:       ak,
		K:        ak.CK,
		FS:       NewRamFS(),
		procs:    make(map[int]*Proc),
		nextPID:  1,
		programs: make(map[string]Program),
	}
	ak.OnTrap = u.syscall
	ak.OnFault = u.fault
	ak.OnRecover = u.Recover
	return u
}

// Recover rebuilds the emulator's Cache Kernel state after a
// crash-reboot of the MPM's instance. The SRM runs it (via the
// application kernel's OnRecover hook) on a fresh thread in the
// emulator's own space once the kernel object and space are reloaded.
//
// The emulator is the backing store of the caching model: pids, program
// closures, segment contents and the RAM disk all survived in emulator
// memory. Only the cached descriptors died, so recovery is re-loading:
// a fresh address space per live process, thread reloads for processes
// that were parked at the crash, and a rerun from the program start for
// processes whose execution context was running on a CPU when the crash
// hit (register state is unrecoverable; the program is not).
func (u *Unix) Recover(e *hw.Exec) {
	// Deferred space unloads refer to identifiers that died with the
	// crash; dropping the queue is the unload.
	u.deadSpaces = nil
	// The scheduler thread was parked in WaitSignal (reloading resumes
	// it spuriously and its loop re-arms the alarm under the fresh
	// identifier) or was killed on a CPU (revive reruns the loop).
	if u.schedThread != nil {
		u.schedThread.MarkUnloaded()
		u.schedThread.Revive()
		u.schedThread.SpaceID = u.AK.SpaceID
		_ = u.schedThread.Load(e, false)
	}
	for _, p := range u.sortedProcs() {
		if p.state == procZombie {
			continue
		}
		p.thread.MarkUnloaded()
		if p.state == procSleeping {
			// A sleeper stays unloaded until its deadline; marking it
			// swapped routes its wakeup through swapIn, which loads the
			// fresh space its reload needs.
			p.swapped = true
			continue
		}
		if p.thread.Exec.Finished() && p.thread.Revive() {
			u.Restarts++
		}
		if err := u.swapIn(e, p); err != nil {
			continue
		}
		if err := p.thread.Load(e, false); err != nil {
			continue
		}
	}
}

// RegisterProgram installs a named program (the emulator's "file system
// binding of virtual addresses to code": here a program table, since
// code is native Go).
func (u *Unix) RegisterProgram(name string, p Program) { u.programs[name] = p }

// StartScheduler launches the emulator's scheduler thread: it wakes on
// each rescheduling interval via a clock alarm, adjusts priorities,
// reloads due sleepers and swaps out long-idle processes (paper §2.3,
// §4.3). It must run from the emulator's main thread.
func (u *Unix) StartScheduler(e *hw.Exec) error {
	u.schedThread = u.AK.NewThread("sched", u.AK.SpaceID, maxUserPrio+4, u.schedulerLoop)
	return u.schedThread.Load(e, false)
}

// StopScheduler asks the scheduler thread to exit at its next interval.
func (u *Unix) StopScheduler() { u.stopSched = true }

func (u *Unix) schedulerLoop(e *hw.Exec) {
	u.schedExec = e
	k := u.K
	for !u.stopSched {
		me := u.schedThread.TID
		if err := k.SetAlarm(e, me, e.Now()+schedInterval, 0); err != nil {
			return
		}
		if _, err := k.WaitSignal(e); err != nil {
			return
		}
		u.Reschedules++
		u.reapSpaces(e)
		u.wakeSleepers(e)
		u.adjustPriorities(e)
		u.swapIdle(e)
	}
}

// wakeSleepers reloads threads whose sleep deadline passed — the
// on-demand thread reloading of paper §2.3.
func (u *Unix) wakeSleepers(e *hw.Exec) {
	now := e.Now()
	var rest []*sleeper
	for _, s := range u.sleepQ {
		if s.deadline <= now && s.proc.state == procSleeping {
			if err := u.wakeup(e, s.proc); err != nil {
				rest = append(rest, s)
			}
		} else if s.proc.state == procSleeping {
			rest = append(rest, s)
		}
	}
	u.sleepQ = rest
}

// wakeup makes a sleeping process runnable again, swapping it in first
// if needed.
func (u *Unix) wakeup(e *hw.Exec, p *Proc) error {
	if p.swapped {
		if err := u.swapIn(e, p); err != nil {
			return err
		}
	}
	if err := p.thread.Load(e, false); err != nil {
		if err == ck.ErrInvalidID {
			// Space written back concurrently: reload it and retry —
			// the paper's retry protocol.
			if err := u.swapIn(e, p); err != nil {
				return err
			}
			if err := p.thread.Load(e, false); err != nil {
				return err
			}
		} else {
			return err
		}
	}
	p.state = procRunning
	p.idleIntervals = 0
	u.Wakeups++
	return nil
}

// adjustPriorities implements the UNIX-style policy: processes that ran
// compute-bound through the whole interval degrade toward the bottom of
// the user range (reducing the drain on the kernel's quota); processes
// that slept recover (paper §2.3, §4.3).
func (u *Unix) adjustPriorities(e *hw.Exec) {
	for _, p := range u.sortedProcs() {
		if p.state != procRunning || !p.thread.Loaded {
			continue
		}
		if p.sleptRecently {
			p.dynPrio = userPrio + 4
			p.sleptRecently = false
		} else if p.dynPrio > 2 {
			p.dynPrio--
		}
		if p.dynPrio > maxUserPrio {
			p.dynPrio = maxUserPrio
		}
		_ = p.thread.SetPriority(e, p.dynPrio)
	}
}

// swapIdle unloads the address spaces of long-sleeping processes so they
// consume no Cache Kernel descriptors (paper §2.3).
func (u *Unix) swapIdle(e *hw.Exec) {
	for _, p := range u.sortedProcs() {
		if p.state != procSleeping || p.swapped {
			continue
		}
		p.idleIntervals++
		if p.idleIntervals >= swapAfter {
			u.swapOut(e, p)
		}
	}
}

// swapOut unloads a process's address space (and with it any mappings);
// the thread is already unloaded because the process sleeps.
func (u *Unix) swapOut(e *hw.Exec, p *Proc) {
	if err := u.K.UnloadSpace(e, p.sid); err != nil && err != ck.ErrInvalidID {
		return
	}
	u.AK.DetachSpace(p.sid)
	p.swapped = true
	u.SwapsOut++
}

// swapIn reloads a swapped process's address space under a fresh
// identifier; pages refault on demand from the retained frames.
func (u *Unix) swapIn(e *hw.Exec, p *Proc) error {
	sid, err := u.K.LoadSpace(e, false)
	if err != nil {
		return err
	}
	p.sid = sid
	p.sm.SID = sid
	u.AK.AttachSpace(sid, p.sm)
	p.thread.SpaceID = sid
	p.swapped = false
	u.SwapsIn++
	return nil
}

func (u *Unix) sortedProcs() []*Proc {
	out := make([]*Proc, 0, len(u.procs))
	for pid := 1; pid < u.nextPID; pid++ {
		if p, ok := u.procs[pid]; ok {
			out = append(out, p)
		}
	}
	return out
}

// procByThread resolves the process of a trapping thread.
func (u *Unix) procByThread(tid ck.ObjID) *Proc {
	for _, p := range u.sortedProcs() {
		if p.thread != nil && p.thread.Loaded && p.thread.TID == tid {
			return p
		}
	}
	return nil
}

// fault handles access errors in process spaces that the segment
// managers cannot satisfy: the SEGV path. With a handler registered the
// process runs it; otherwise the process dies (paper §2.1).
func (u *Unix) fault(e *hw.Exec, thread, space ck.ObjID, va uint32, write bool, kind hw.Fault) (bool, bool) {
	sm := u.AK.SpaceManager(space)
	if sm != nil && sm.HandleFault(e, va, write) {
		return true, true
	}
	p := u.procByThread(thread)
	if p == nil {
		return true, false // not one of ours: kill
	}
	u.Segvs++
	if p.segvHandler != nil {
		// Resume the thread at the user's signal handler, in user mode
		// in its own space (paper §2.1).
		h := p.segvHandler
		p.segvHandler = nil // one-shot, like entry-time SIG_DFL reset
		_ = u.K.RunAsUser(e, space, func() { h(p.env, va) })
		return true, !p.dead
	}
	u.exitProc(e, p, 0xff, true)
	return true, false
}

// errno packs an error return.
func errno(code uint32) (uint32, uint32) { return ^uint32(0), code }

// syscall dispatches a forwarded trap (paper §2.3's trap forwarding).
func (u *Unix) syscall(e *hw.Exec, thread ck.ObjID, no uint32, args []uint32) (uint32, uint32) {
	u.Syscalls++
	p := u.procByThread(thread)
	if p == nil {
		return errno(ESRCH)
	}
	arg := func(i int) uint32 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch no {
	case SysGetpid:
		e.Instr(4) // pid table lookup
		return uint32(p.pid), 0
	case SysExit:
		u.exitProc(e, p, arg(0), false)
		return 0, 0 // not reached by the caller; thread unloaded
	case SysSbrk:
		return u.sbrk(e, p, int32(arg(0)))
	case SysOpen, SysCreat:
		return u.open(e, p, arg(0), no == SysCreat)
	case SysClose:
		return u.close(p, int(arg(0)))
	case SysRead:
		return u.readWrite(e, p, int(arg(0)), arg(1), arg(2), false)
	case SysWrite:
		return u.readWrite(e, p, int(arg(0)), arg(1), arg(2), true)
	case SysSleep:
		return u.sleep(e, p, uint64(arg(0)))
	case SysWait:
		return u.wait(e, p)
	case SysKill:
		return u.kill(e, p, int(arg(0)))
	case SysSpawn:
		return u.spawnSyscall(e, p, arg(0), arg(1))
	case SysYield:
		e.Instr(2)
		return 0, 0
	}
	return errno(EINVAL)
}

func (u *Unix) String() string {
	return fmt.Sprintf("unixemu(%d procs)", len(u.procs))
}
