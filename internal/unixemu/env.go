package unixemu

import "vpp/internal/hw"

// ProcEnv is a user program's view of the system: every method (except
// the host-side conveniences noted) issues a real trap instruction that
// the Cache Kernel forwards to the emulator (paper §2.3).
type ProcEnv struct {
	u *Unix
	p *Proc
	e *hw.Exec
}

// Exec exposes the underlying execution context for direct memory
// access (the program's loads and stores).
func (env *ProcEnv) Exec() *hw.Exec { return env.e }

// Getpid returns the stable process identifier via a forwarded trap —
// the 37 µs operation of Section 5.3.
func (env *ProcEnv) Getpid() int {
	r0, _ := env.e.Trap(SysGetpid)
	return int(r0)
}

// Exit terminates the process. It does not return.
func (env *ProcEnv) Exit(code uint32) {
	env.e.Trap(SysExit, code)
	// The trap never returns (the thread was unloaded); if the machinery
	// is torn down early, stop the body.
	env.e.Exit()
}

// Sbrk grows the heap by n bytes, returning the old break (like
// sbrk(2)).
func (env *ProcEnv) Sbrk(n uint32) uint32 {
	r0, _ := env.e.Trap(SysSbrk, n)
	return r0
}

// Sleep suspends the process for ms milliseconds; the emulator unloads
// the thread and reloads it at the deadline.
func (env *ProcEnv) Sleep(ms uint32) {
	env.e.Trap(SysSleep, ms)
}

// Open opens (creat=false) or creates a file by path; the path string
// is written into process memory first, as a real libc would.
func (env *ProcEnv) Open(path string, creat bool) (int, uint32) {
	va := env.pushString(path)
	no := uint32(SysOpen)
	if creat {
		no = SysCreat
	}
	r0, r1 := env.e.Trap(no, va)
	if r0 == ^uint32(0) {
		return -1, r1
	}
	return int(r0), 0
}

// Close closes a descriptor.
func (env *ProcEnv) Close(fd int) uint32 {
	_, r1 := env.e.Trap(SysClose, uint32(fd))
	return r1
}

// Write writes n bytes from process memory at va to fd.
func (env *ProcEnv) Write(fd int, va, n uint32) (int, uint32) {
	r0, r1 := env.e.Trap(SysWrite, uint32(fd), va, n)
	if r0 == ^uint32(0) {
		return -1, r1
	}
	return int(r0), 0
}

// Read reads up to n bytes from fd into process memory at va.
func (env *ProcEnv) Read(fd int, va, n uint32) (int, uint32) {
	r0, r1 := env.e.Trap(SysRead, uint32(fd), va, n)
	if r0 == ^uint32(0) {
		return -1, r1
	}
	return int(r0), 0
}

// WriteString stores s into the heap and writes it to fd.
func (env *ProcEnv) WriteString(fd int, s string) (int, uint32) {
	va := env.pushString(s)
	return env.Write(fd, va, uint32(len(s)))
}

// Spawn starts a registered program as a child process, returning its
// pid.
func (env *ProcEnv) Spawn(name string) (int, uint32) {
	idx, ok := env.u.ProgramIndex(name)
	if !ok {
		return -1, ENOENT
	}
	r0, r1 := env.e.Trap(SysSpawn, idx, 0)
	if r0 == ^uint32(0) {
		return -1, r1
	}
	return int(r0), 0
}

// Wait blocks until a child exits, returning its pid and exit status.
func (env *ProcEnv) Wait() (int, uint32, bool) {
	r0, r1 := env.e.Trap(SysWait)
	if r0 == ^uint32(0) {
		return 0, 0, false
	}
	return int(r0), r1, true
}

// Kill terminates a process by pid.
func (env *ProcEnv) Kill(pid int) uint32 {
	_, r1 := env.e.Trap(SysKill, uint32(pid))
	return r1
}

// OnSegv registers a one-shot handler run (in this process) on an
// unresolvable access error, standing in for signal(SIGSEGV, ...). The
// registration itself is a host-side convenience.
func (env *ProcEnv) OnSegv(fn func(env *ProcEnv, va uint32)) {
	env.p.segvHandler = fn
}

// Load32 and Store32 access process memory directly (ordinary user
// instructions, faulting and demand-paging as needed).
func (env *ProcEnv) Load32(va uint32) uint32 { return env.e.Load32(va) }
func (env *ProcEnv) Store32(va, v uint32)    { env.e.Store32(va, v) }
func (env *ProcEnv) Touch(va uint32, w bool) { env.e.Touch(va, w) }

// HeapBase reports the bottom of the heap segment.
func (env *ProcEnv) HeapBase() uint32 { return DataBase }

// pushString stores s (NUL-terminated) at a scratch position near the
// bottom of the stack segment and returns its address.
func (env *ProcEnv) pushString(s string) uint32 {
	va := uint32(StackBase)
	for i := 0; i < len(s); i++ {
		env.e.Store8(va+uint32(i), s[i])
	}
	env.e.Store8(va+uint32(len(s)), 0)
	return va
}
