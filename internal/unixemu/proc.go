package unixemu

import (
	"fmt"
	"sort"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
)

// Process address-space layout.
const (
	TextBase     = 0x0040_0000 // program "text" (unused by native code, mapped for realism)
	DataBase     = 0x1000_0000 // heap, grows with sbrk
	StackBase    = 0x7000_0000
	StackPages   = 16
	HeapMaxPages = 4096
)

type procState int

const (
	procRunning procState = iota
	procSleeping
	procWaiting
	procZombie
)

// Proc is the emulator's per-process record: the stable structure behind
// the changing Cache Kernel identifiers (paper §2: "the UNIX emulator
// provides a stable UNIX-like process identifier that is independent of
// the Cache Kernel address space and thread identifiers").
type Proc struct {
	pid    int
	parent *Proc
	u      *Unix

	sid    ck.ObjID
	sm     *aklib.SegmentManager
	thread *aklib.Thread
	env    *ProcEnv

	heap     *aklib.Segment
	stack    *aklib.Segment
	brkPages uint32

	fds      []*FD
	state    procState
	swapped  bool
	dead     bool
	exitCode uint32

	dynPrio       int
	sleptRecently bool
	idleIntervals int

	segvHandler func(env *ProcEnv, va uint32)

	waiters []ck.ObjID // threads blocked in wait() on this process
}

// PID reports the stable process identifier.
func (p *Proc) PID() int { return p.pid }

// ExitCode reports the exit status of a zombie.
func (p *Proc) ExitCode() uint32 { return p.exitCode }

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool { return p.state == procZombie }

// State strings for diagnostics.
func (p *Proc) stateName() string {
	switch p.state {
	case procRunning:
		return "run"
	case procSleeping:
		return "sleep"
	case procWaiting:
		return "wait"
	case procZombie:
		return "zombie"
	}
	return "?"
}

// Spawn creates a new process running the named registered program —
// the emulator "executes a new process by loading an address space
// object into the Cache Kernel for the new process to run in and a new
// thread descriptor to execute this program" (paper §2.1).
func (u *Unix) Spawn(e *hw.Exec, name string, parent *Proc) (*Proc, error) {
	prog := u.programs[name]
	if prog == nil {
		return nil, fmt.Errorf("unixemu: no program %q", name)
	}
	if len(u.procs) >= maxProcs {
		return nil, fmt.Errorf("unixemu: process table full")
	}
	sid, err := u.K.LoadSpace(e, false)
	if err != nil {
		return nil, err
	}
	p := &Proc{
		pid:     u.nextPID,
		parent:  parent,
		u:       u,
		sid:     sid,
		dynPrio: userPrio,
	}
	u.nextPID++
	p.sm = aklib.NewSegmentManager(u.AK, sid)
	// Heap and stack are demand-paged anonymous segments backed by the
	// RAM disk's swap area so page-out works.
	swap := u.FS.SwapBacking(fmt.Sprintf("swap/%d", p.pid))
	p.heap, err = p.sm.Map(e, "heap", DataBase, HeapMaxPages, aklib.SegFlags{Writable: true}, swap)
	if err != nil {
		// Best-effort cleanup of the just-loaded space; the Map error
		// is what the caller needs to see.
		_ = u.K.UnloadSpace(e, sid)
		return nil, err
	}
	p.brkPages = 0
	p.stack, err = p.sm.Map(e, "stack", StackBase, StackPages, aklib.SegFlags{Writable: true}, swap)
	if err != nil {
		_ = u.K.UnloadSpace(e, sid) // best-effort cleanup, keep the Map error
		return nil, err
	}
	p.fds = make([]*FD, 3) // stdin/stdout/stderr slots (console-less)
	p.env = &ProcEnv{u: u, p: p}
	p.thread = u.AK.NewThread(fmt.Sprintf("pid%d", p.pid), sid, p.dynPrio, func(te *hw.Exec) {
		p.env.e = te
		prog(p.env)
		// Falling off main is exit(0).
		if !p.dead {
			p.env.Exit(0)
		}
	})
	if err := p.thread.Load(e, false); err != nil {
		_ = u.K.UnloadSpace(e, sid) // best-effort cleanup, keep the Load error
		return nil, err
	}
	u.procs[p.pid] = p
	return p, nil
}

// exitProc tears a process down: unload its thread and space, free its
// frames, mark it zombie and wake any waiters. selfExit distinguishes a
// voluntary exit (the calling thread is the process) from a kill by the
// fault path.
func (u *Unix) exitProc(e *hw.Exec, p *Proc, code uint32, killed bool) {
	if p.dead {
		return
	}
	p.dead = true
	p.exitCode = code
	p.state = procZombie

	// Free segment frames (retained data is gone: the process is over).
	if p.sm != nil {
		for _, seg := range p.sm.Segments() {
			for i := uint32(0); i < seg.Pages; i++ {
				if pfn, ok := seg.PFN(i); ok {
					u.AK.Frames.Free(pfn)
				}
			}
		}
	}
	// Wake waiters before unloading ourselves.
	for _, w := range p.waiters {
		_ = u.K.PostSignal(e, w, uint32(p.pid))
	}
	p.waiters = nil

	self := p.thread != nil && p.thread.Loaded && p.thread.Exec == e
	if !p.swapped {
		// Unloading the space also unloads the thread and mappings,
		// dependency-first. We must not unload the calling thread's
		// space out from under the running trap handler, so the thread
		// goes first when exiting voluntarily.
		if self {
			// Self-unload parks this execution permanently; the space
			// unload is deferred to the scheduler thread's next pass
			// (the space cannot be torn down under a live trap frame).
			tid := p.thread.TID
			u.AK.DetachSpace(p.sid)
			p.thread.MarkUnloaded()
			u.deferSpaceUnload(p.sid)
			_, _ = u.K.UnloadThread(e, tid) // never returns for self
			return
		}
		if p.thread.Loaded {
			_ = p.thread.Unload(e)
		}
		_ = u.K.UnloadSpace(e, p.sid)
		u.AK.DetachSpace(p.sid)
	}
}

// deferSpaceUnload queues a space for teardown by the scheduler thread
// (used on voluntary exit, where the exiting thread cannot survive its
// own space unload).
func (u *Unix) deferSpaceUnload(sid ck.ObjID) {
	u.deadSpaces = append(u.deadSpaces, sid)
}

// reapSpaces unloads queued dead spaces.
func (u *Unix) reapSpaces(e *hw.Exec) {
	for _, sid := range u.deadSpaces {
		if err := u.K.UnloadSpace(e, sid); err != nil && err != ck.ErrInvalidID {
			continue
		}
		u.AK.DetachSpace(sid)
	}
	u.deadSpaces = nil
}

// sbrk grows (or shrinks) the heap by delta bytes, page-rounded,
// returning the old break.
func (u *Unix) sbrk(e *hw.Exec, p *Proc, delta int32) (uint32, uint32) {
	oldBrk := DataBase + p.brkPages*hw.PageSize
	pages := (delta + hw.PageSize - 1) / hw.PageSize
	newPages := int32(p.brkPages) + pages
	if newPages < 0 || newPages > HeapMaxPages {
		return errno(ENOMEM)
	}
	p.brkPages = uint32(newPages)
	e.Instr(8)
	return oldBrk, 0
}

// sleep blocks the process for ms milliseconds by unloading its thread;
// the scheduler thread reloads it when the deadline passes (paper §2.3:
// "a thread is unloaded when it begins to sleep ... reloaded when a
// wakeup call is issued").
func (u *Unix) sleep(e *hw.Exec, p *Proc, ms uint64) (uint32, uint32) {
	deadline := e.Now() + ms*1000*hw.CyclesPerMicrosecond
	p.state = procSleeping
	p.sleptRecently = true
	u.sleepQ = append(u.sleepQ, &sleeper{deadline: deadline, proc: p})
	tid := p.thread.TID
	p.thread.MarkUnloaded() // unloading self: record it ourselves
	if _, err := u.K.UnloadThread(e, tid); err != nil {
		p.state = procRunning
		return errno(EINVAL)
	}
	// Reloaded: we resume here.
	p.state = procRunning
	return 0, 0
}

// wait blocks until some child exits, returning its pid and status.
func (u *Unix) wait(e *hw.Exec, p *Proc) (uint32, uint32) {
	for {
		var children int
		for _, c := range u.sortedProcs() {
			if c.parent != p {
				continue
			}
			children++
			if c.state == procZombie {
				code := c.exitCode
				pid := c.pid
				delete(u.procs, c.pid)
				return uint32(pid), code
			}
		}
		if children == 0 {
			return errno(ECHILD)
		}
		p.state = procWaiting
		for _, c := range u.sortedProcs() {
			if c.parent == p && c.state != procZombie {
				c.waiters = append(c.waiters, p.thread.TID)
			}
		}
		if _, err := u.K.WaitSignal(e); err != nil {
			return errno(EINVAL)
		}
		p.state = procRunning
	}
}

// kill terminates another process.
func (u *Unix) kill(e *hw.Exec, p *Proc, pid int) (uint32, uint32) {
	victim := u.procs[pid]
	if victim == nil {
		return errno(ESRCH)
	}
	if victim == p {
		u.exitProc(e, p, 0xff, false)
		return 0, 0
	}
	u.exitProc(e, victim, 0xff, true)
	return 0, 0
}

// spawnSyscall starts a registered program by index in the program name
// table (names are passed by table position; a real emulator would read
// the path from user memory).
func (u *Unix) spawnSyscall(e *hw.Exec, p *Proc, nameIdx, _ uint32) (uint32, uint32) {
	names := u.programNames()
	if int(nameIdx) >= len(names) {
		return errno(ENOENT)
	}
	child, err := u.Spawn(e, names[nameIdx], p)
	if err != nil {
		return errno(ENOMEM)
	}
	return uint32(child.pid), 0
}

// programNames lists registered programs in sorted order so indices are
// stable.
func (u *Unix) programNames() []string {
	var names []string
	for n := range u.programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProgramIndex reports the spawn index for a registered program name.
func (u *Unix) ProgramIndex(name string) (uint32, bool) {
	for i, n := range u.programNames() {
		if n == name {
			return uint32(i), true
		}
	}
	return 0, false
}

// Proc looks up a process by pid.
func (u *Unix) Proc(pid int) *Proc { return u.procs[pid] }

// NumProcs reports the live process count.
func (u *Unix) NumProcs() int { return len(u.procs) }
