// Package monolith is a conventional monolithic kernel baseline for the
// evaluation: all services — process table, scheduler, virtual memory —
// live in supervisor mode, system calls dispatch directly (one trap
// level, like the paper's Mach 2.5 getpid comparison), and the process
// table is fixed-size, exhibiting the "hard error" behaviour the caching
// model eliminates (paper §7: an application on the Cache Kernel never
// encounters the kernel running out of thread or address space
// descriptors).
package monolith

import (
	"fmt"

	"vpp/internal/hw"
	"vpp/internal/pagetable"
)

// System call numbers (matching unixemu where shared).
const (
	SysExit   = 1
	SysGetpid = 20
	SysYield  = 158
)

// Baseline costs, calibrated so getpid lands on the paper's Mach 2.5
// figure of 25 µs (the Cache Kernel path is 12 µs longer).
const (
	costSyscall   = 405 // in-kernel dispatch + validation
	costFault     = 1960
	costSwitch    = 350
	costDescoping = 60
)

// NPROC is the fixed process table size — the classic hard limit.
const NPROC = 32

// Proc is an in-kernel process slot.
type Proc struct {
	PID   int
	used  bool
	state procState
	exec  *hw.Exec
	space *hw.Space
	prio  int

	// segments: simple in-kernel VM.
	segs []seg

	frames   []uint32
	exitCode uint32
}

type seg struct {
	va, pages uint32
	writable  bool
}

type procState int

const (
	procFree procState = iota
	procReady
	procRunning
	procZombie
)

// Kernel is the monolithic kernel instance (the machine's supervisor).
type Kernel struct {
	MPM *hw.MPM

	procs     [NPROC]Proc
	nextPID   int
	ready     []*Proc
	nextFrame uint32
	asid      uint16

	// Stats.
	Syscalls, Faults, Switches uint64
}

// ErrProcTableFull is the hard error a fixed-table kernel returns.
var ErrProcTableFull = fmt.Errorf("monolith: process table full")

// New installs a monolithic kernel as the MPM's supervisor.
func New(mpm *hw.MPM) *Kernel {
	k := &Kernel{MPM: mpm, nextPID: 1, nextFrame: 4096}
	mpm.Sup = k
	return k
}

// Spawn creates a process running body with a heap segment at the given
// base. It fails with ErrProcTableFull when the table is exhausted.
func (k *Kernel) Spawn(name string, prio int, heapBase, heapPages uint32, body func(e *hw.Exec)) (*Proc, error) {
	var p *Proc
	for i := range k.procs {
		if !k.procs[i].used {
			p = &k.procs[i]
			break
		}
	}
	if p == nil {
		return nil, ErrProcTableFull
	}
	tbl, err := pagetable.New(k.MPM.LocalRAM)
	if err != nil {
		return nil, err
	}
	k.asid++
	*p = Proc{
		PID:   k.nextPID,
		used:  true,
		state: procReady,
		space: &hw.Space{Table: tbl, ASID: k.asid},
		prio:  prio,
		segs:  []seg{{va: heapBase, pages: heapPages, writable: true}},
	}
	k.nextPID++
	p.exec = k.MPM.NewExec(name, body)
	p.exec.User = p
	p.exec.Space = p.space
	k.makeReady(p)
	return p, nil
}

func (k *Kernel) makeReady(p *Proc) {
	for _, cpu := range k.MPM.CPUs {
		if cpu.Cur == nil {
			p.state = procRunning
			cpu.Clock.AdvanceTo(k.MPM.Engine.Now() + costSwitch)
			cpu.Dispatch(p.exec)
			k.Switches++
			return
		}
	}
	p.state = procReady
	k.ready = append(k.ready, p)
}

func (k *Kernel) dispatchNext(cpu *hw.CPU) {
	if len(k.ready) == 0 {
		return
	}
	p := k.ready[0]
	copy(k.ready, k.ready[1:])
	k.ready = k.ready[:len(k.ready)-1]
	p.state = procRunning
	k.Switches++
	cpu.Dispatch(p.exec)
}

// Syscall implements hw.Supervisor: direct in-kernel dispatch.
func (k *Kernel) Syscall(e *hw.Exec, no uint32, args []uint32) (uint32, uint32) {
	k.Syscalls++
	e.ChargeNoIntr(costSyscall)
	p, _ := e.User.(*Proc)
	if p == nil {
		return ^uint32(0), 1
	}
	switch no {
	case SysGetpid:
		e.Instr(4)
		return uint32(p.PID), 0
	case SysExit:
		p.state = procZombie
		if len(args) > 0 {
			p.exitCode = args[0]
		}
		e.Exit()
	case SysYield:
		return 0, 0
	}
	return ^uint32(0), 22
}

// AccessError implements hw.Supervisor: the in-kernel page fault path.
func (k *Kernel) AccessError(e *hw.Exec, va uint32, write bool, f hw.Fault) {
	k.Faults++
	e.ChargeNoIntr(costFault)
	p, _ := e.User.(*Proc)
	if p == nil {
		panic("monolith: fault with no process")
	}
	for _, s := range p.segs {
		if va >= s.va && va < s.va+s.pages*hw.PageSize {
			pfn := k.nextFrame
			k.nextFrame++
			p.frames = append(p.frames, pfn)
			flags := pagetable.PTEValid | pagetable.PTECachable
			if s.writable {
				flags |= pagetable.PTEWrite
			}
			if err := p.space.Table.Insert(va&^(hw.PageSize-1), pagetable.MakePTE(pfn, flags)); err != nil {
				break
			}
			return
		}
	}
	// Segmentation violation: kill.
	p.state = procZombie
	p.exitCode = 0xff
	e.Exit()
}

// Interrupt implements hw.Supervisor (time-slice rotation).
func (k *Kernel) Interrupt(e *hw.Exec, pending uint32) {
	p, _ := e.User.(*Proc)
	if p == nil || len(k.ready) == 0 {
		return
	}
	cpu := e.CPU
	e.ChargeNoIntr(costSwitch)
	p.state = procReady
	k.ready = append(k.ready, p)
	if cpu.Cur == e {
		cpu.Cur = nil
	}
	e.CPU = nil
	k.dispatchNext(cpu)
	e.Ctx().Park()
}

// MessageWrite implements hw.Supervisor (unused in the baseline).
func (k *Kernel) MessageWrite(e *hw.Exec, va, pa uint32) {}

// TimerTick implements hw.Supervisor.
func (k *Kernel) TimerTick(c *hw.CPU) { c.Post(1) }

// Exited implements hw.Supervisor.
func (k *Kernel) Exited(e *hw.Exec) {
	cpu := e.CPU
	if p, _ := e.User.(*Proc); p != nil && p.state != procZombie {
		p.state = procZombie
	}
	e.CPU = nil
	if cpu != nil {
		k.dispatchNext(cpu)
	}
}

// Reap frees a zombie's slot and frames.
func (k *Kernel) Reap(pid int) bool {
	for i := range k.procs {
		p := &k.procs[i]
		if p.used && p.PID == pid && p.state == procZombie {
			p.space.Table.Release()
			p.used = false
			return true
		}
	}
	return false
}

// Proc finds a live process by pid.
func (k *Kernel) Proc(pid int) *Proc {
	for i := range k.procs {
		if k.procs[i].used && k.procs[i].PID == pid {
			return &k.procs[i]
		}
	}
	return nil
}

// Zombie reports whether pid has exited.
func (k *Kernel) Zombie(pid int) bool {
	p := k.Proc(pid)
	return p != nil && p.state == procZombie
}
