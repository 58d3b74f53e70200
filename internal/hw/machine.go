package hw

import (
	"fmt"

	"vpp/internal/sim"
)

// LocalRAMBytes and L2Bytes size each MPM's local RAM and second-level
// cache: the paper's ParaDiGM MPM has 2 MB and 8 MB.
const (
	LocalRAMBytes = 2 << 20
	L2Bytes       = 8 << 20
)

// Config describes a simulated ParaDiGM machine.
type Config struct {
	MPMs         int
	CPUsPerMPM   int
	PhysMemBytes uint32

	// Shards is ignored: every MPM runs on the machine's one engine.
	//
	// Deprecated: kept only so the benchmark module, which sets it,
	// still compiles; it goes with the next benchmark change (ROADMAP
	// item 7).
	Shards int
}

// DefaultConfig matches the paper's prototype: an MPM of four 25 MHz
// CPUs over 64 MB of shared third-level memory.
func DefaultConfig() Config {
	return Config{
		MPMs:         1,
		CPUsPerMPM:   4,
		PhysMemBytes: 64 << 20,
	}
}

// Machine is a simulated multiprocessor: shared physical memory plus one
// or more MPMs, all on one engine. Drive it through the Machine-level
// Run / SetTraceDispatch / SetMaxSteps / Now / Steps wrappers; every
// MPM.Engine is Machine.Engine.
type Machine struct {
	Engine *sim.Engine
	Phys   *PhysMem
	MPMs   []*MPM
	Cfg    Config
}

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) *Machine {
	if cfg.MPMs <= 0 || cfg.CPUsPerMPM <= 0 {
		panic("hw: machine needs at least one MPM and CPU")
	}
	m := &Machine{
		Engine: &sim.Engine{},
		Phys:   NewPhysMem(cfg.PhysMemBytes),
		Cfg:    cfg,
	}
	cpuID := 0
	for i := 0; i < cfg.MPMs; i++ {
		mpm := &MPM{
			ID:       i,
			Machine:  m,
			Engine:   m.Engine,
			LocalRAM: NewRAMAllocator(fmt.Sprintf("mpm%d-lram", i), LocalRAMBytes),
			L2:       NewL2Cache(L2Bytes),
		}
		for j := 0; j < cfg.CPUsPerMPM; j++ {
			cpu := &CPU{
				ID:    cpuID,
				Index: j,
				MPM:   mpm,
				Clock: sim.NewClock(fmt.Sprintf("cpu%d.%d", i, j)),
				TLB:   NewTLB(DefaultTLBEntries),
			}
			cpu.timer = m.Engine.NewStream(func() {
				if mpm.Sup != nil {
					mpm.Sup.TimerTick(cpu)
				}
			})
			mpm.CPUs = append(mpm.CPUs, cpu)
			cpuID++
		}
		m.MPMs = append(m.MPMs, mpm)
	}
	return m
}

// Run drives the simulation until quiescent or until the virtual cycle
// bound is reached. A panic in an execution reaches the caller as a
// *sim.Panic that carries the panic site's stack (sim.Engine.Run);
// the machine is then only fit for Close.
func (m *Machine) Run(until uint64) error { return m.Engine.Run(until) }

// Close ends the machine once its last Run has returned
// (sim.Engine.Close): every execution still parked, runnable or in
// the middle of a call is unwound without running any more simulated
// code. A machine dropped without Close
// leaks one goroutine per such execution, and each of them keeps the
// whole machine reachable. Close twice is a no-op; Run after Close
// panics.
func (m *Machine) Close() { m.Engine.Close() }

// SetTraceDispatch installs the dispatch-trace hook; it sees every
// activation in schedule order (sim.Engine.SetTrace).
func (m *Machine) SetTraceDispatch(fn func(name string, id int, at uint64)) { m.Engine.SetTrace(fn) }

// SetMaxSteps arms the machine-wide scheduling-decision guard.
func (m *Machine) SetMaxSteps(n uint64) { m.Engine.MaxSteps = n }

// Now reports the machine's global virtual time: the time of the most
// recent schedule point.
func (m *Machine) Now() uint64 { return m.Engine.SchedTime() }

// Steps reports total schedule points.
func (m *Machine) Steps() uint64 { return m.Engine.Steps() }

// MPM is one multiprocessor module: a small number of CPUs sharing a
// second-level cache and local RAM, running its own Cache Kernel instance
// (the Supervisor).
type MPM struct {
	ID      int
	Machine *Machine
	// Engine owns this MPM's clocks, coroutines and events, and those
	// of every other MPM of the machine. All scheduling for the MPM
	// goes through it.
	Engine   *sim.Engine
	CPUs     []*CPU
	LocalRAM *RAMAllocator
	L2       *L2Cache
	Sup      Supervisor

	// WalkFault, when non-nil, is consulted once per hardware table
	// walk; returning true makes the walk fail transiently — the walk
	// cycles are charged and the hardware re-walks from the root.
	// Fault injection (internal/chaos) installs it; nil costs nothing.
	WalkFault func(e *Exec, va uint32) bool
}

// FlushTLBPage removes the (asid, vpn) translation from every CPU of the
// MPM — the shoot-down performed when the Cache Kernel unloads a mapping.
func (m *MPM) FlushTLBPage(asid uint16, vpn uint32) {
	for _, c := range m.CPUs {
		c.TLB.InvalidatePage(asid, vpn)
	}
}

// FlushTLBSpace removes all of an address space's translations from every
// CPU of the MPM.
func (m *MPM) FlushTLBSpace(asid uint16) {
	for _, c := range m.CPUs {
		c.TLB.InvalidateSpace(asid)
	}
}

// CPU is one simulated processor.
type CPU struct {
	ID    int // machine-wide
	Index int // within the MPM
	MPM   *MPM
	Clock *sim.Clock
	TLB   *TLB

	// Cur is the execution context currently dispatched on the CPU,
	// nil when idle. Maintained by the supervisor's scheduler.
	Cur *Exec

	// pending is a bitmask of pending interrupt causes, delivered to the
	// supervisor at the running context's next charge point. The
	// supervisor defines the bit meanings. Only Post and RestoreIntr
	// set bits, and both drop the running context's attention limit.
	pending uint32

	// timer is the slice timer, one engine stream per CPU: however
	// many armings are pending, one queue entry stands for them.
	timer *sim.Stream
}

// Post sets pending-interrupt bits on the CPU. Safe from engine
// context. It drops the running context's attention limit
// (sim.Engine.Look): a context that posts to its own CPU takes the
// cause at its next charge, and any other context takes it when it
// resumes.
func (c *CPU) Post(bits uint32) {
	c.pending |= bits
	c.MPM.Engine.Look()
}

// Pending reports the CPU's pending interrupt causes.
func (c *CPU) Pending() uint32 { return c.pending }

// ClearPending drops every pending cause undelivered, as a reset does.
func (c *CPU) ClearPending() { c.pending = 0 }

// ArmTimerAt schedules a supervisor TimerTick for this CPU at virtual
// time t, as one ScheduleAt would. t must not precede the time the
// timer was last armed for (sim.Stream.At panics if it does): a
// supervisor that arms at the CPU's clock plus a fixed slice never
// does, because the clock only moves forward.
func (c *CPU) ArmTimerAt(t uint64) { c.timer.At(t) }

// Dispatch places e on the CPU and makes it runnable. The CPU must be
// free (supervisor scheduling invariant).
//
//ckvet:allow chargepath raw dispatch bookkeeping; the supervisor's scheduler charges CostSchedule and context-restore costs
func (c *CPU) Dispatch(e *Exec) {
	if c.Cur != nil {
		panic(fmt.Sprintf("hw: dispatch %q onto busy cpu %d (running %q)", e.Name, c.ID, c.Cur.Name))
	}
	c.Cur = e
	e.CPU = c
	c.MPM.Engine.UnparkOn(e.coro, c.Clock)
}

// Fault identifies the cause of an access error.
type Fault int

// Access error causes forwarded to application kernels (paper §2.1).
const (
	FaultMapping     Fault = iota // no translation cached
	FaultProtection               // write to read-only page
	FaultPrivilege                // privileged operation in user mode
	FaultConsistency              // message/consistency trap
)

func (f Fault) String() string {
	switch f {
	case FaultMapping:
		return "mapping"
	case FaultProtection:
		return "protection"
	case FaultPrivilege:
		return "privilege"
	case FaultConsistency:
		return "consistency"
	}
	return "unknown"
}

// Mode is the protection level an execution context currently runs at.
type Mode int

// Protection levels: the paper's "vertical" structure.
const (
	ModeUser       Mode = iota // application code
	ModeKernel                 // application kernel code
	ModeSupervisor             // Cache Kernel code
)

func (m Mode) String() string {
	switch m {
	case ModeUser:
		return "user"
	case ModeKernel:
		return "kernel"
	case ModeSupervisor:
		return "supervisor"
	}
	return "invalid"
}

// Supervisor is the interface the Cache Kernel implements to receive
// hardware events. All methods except TimerTick run in the context of the
// affected execution (coroutine context); TimerTick runs in engine context
// and must only do bookkeeping and unparking.
type Supervisor interface {
	// Syscall handles a trap instruction (both Cache Kernel calls and
	// traps to be forwarded to the owning application kernel).
	Syscall(e *Exec, no uint32, args []uint32) (uint32, uint32)

	// AccessError handles a translation or protection fault at va. When
	// it returns, the faulting access retries.
	AccessError(e *Exec, va uint32, write bool, f Fault)

	// Interrupt delivers latched pending bits to the running context.
	Interrupt(e *Exec, pending uint32)

	// MessageWrite is the signal-on-write hook: e completed a write to
	// a message-mode page at (va, pa).
	MessageWrite(e *Exec, va, pa uint32)

	// TimerTick fires in engine context when an armed CPU timer expires.
	TimerTick(c *CPU)

	// Exited runs in coroutine context after an execution's body
	// returns; the supervisor should schedule other work for the CPU.
	Exited(e *Exec)
}
