// Package chaos is the deterministic fault-injection engine for the
// Cache Kernel reproduction. A Plan schedules typed faults — a Cache
// Kernel crash-reboot, lost or duplicated inter-processor signals,
// corrupted descriptor writebacks, lost/duplicated/delayed wire frames,
// transient page-table walk errors — as virtual-time events through the
// narrow hooks the hardware and Cache Kernel expose. Everything is
// driven by the virtual clock and one seeded PRNG (sim.Rand), so a given
// plan and seed produce the identical fault sequence on every run: a
// crash test is as replayable as any other workload.
//
// The zero plan installs no hooks at all; an unarmed or empty injector
// leaves every simulated run byte-identical to one without the package.
package chaos

import (
	"fmt"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/sim"
)

// Kind is a fault type.
type Kind int

const (
	// CrashKernel crash-reboots a Cache Kernel instance at Fault.At: the
	// MPM's caches and descriptors vanish and its running execution
	// contexts die, exercising the recovery machinery (paper §3).
	CrashKernel Kind = iota
	// DropSignal loses an inter-processor signal delivery.
	DropSignal
	// DupSignal delivers a signal twice.
	DupSignal
	// CorruptWriteback loses a descriptor writeback (the owning kernel
	// never receives the state — a corrupted transfer discarded by the
	// receiver).
	CorruptWriteback
	// DropFrame loses a transmitted Ethernet frame or fiber message.
	DropFrame
	// DupFrame delivers a frame twice.
	DupFrame
	// DelayFrame adds Fault.Delay cycles of delivery latency (a device
	// timeout from the receiver's point of view).
	DelayFrame
	// WalkError makes a hardware page-table walk fail transiently; the
	// walk is charged and retried from the root.
	WalkError
	// KillRunning kills whatever execution context is running on CPU
	// Fault.CPU of MPM Fault.MPM at Fault.At (a transient processor
	// fault): the context unwinds at its next charge point and its
	// thread descriptor is reclaimed without writeback — the involuntary
	// single-thread death that restart policies distinguish from a
	// normal exit. Idle CPUs make it a no-op.
	KillRunning
)

// String names the kind for traces and reports.
func (k Kind) String() string {
	switch k {
	case CrashKernel:
		return "crash-kernel"
	case DropSignal:
		return "drop-signal"
	case DupSignal:
		return "dup-signal"
	case CorruptWriteback:
		return "corrupt-writeback"
	case DropFrame:
		return "drop-frame"
	case DupFrame:
		return "dup-frame"
	case DelayFrame:
		return "delay-frame"
	case WalkError:
		return "walk-error"
	case KillRunning:
		return "kill-running"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one scheduled fault.
type Fault struct {
	Kind Kind
	// At is the virtual time (cycles) the fault arms. For CrashKernel it
	// is the exact crash instant; for the event-probability kinds it
	// opens the injection window.
	At uint64
	// Until closes the window (0 = never).
	Until uint64
	// MPM indexes the kernels slice passed to Arm; CrashKernel and
	// KillRunning use it.
	MPM int
	// CPU indexes the victim MPM's processors; only KillRunning uses it.
	CPU int `json:",omitempty"`
	// Prob is the per-event injection probability while the window is
	// open; 0 means 1 (every event).
	Prob float64
	// Delay is the added latency for DelayFrame, in cycles.
	Delay uint64
}

// Plan is a seeded fault schedule.
type Plan struct {
	Seed   uint64
	Faults []Fault
}

// Stats counts injections performed.
type Stats struct {
	Crashes             uint64
	SignalsDropped      uint64
	SignalsDuplicated   uint64
	WritebacksCorrupted uint64
	FramesDropped       uint64
	FramesDuplicated    uint64
	FramesDelayed       uint64
	WalkErrors          uint64
	ExecsKilled         uint64
}

// Injector evaluates a plan against the hooks it is armed on. Every
// hook draws from one generator seeded with the plan's seed, in the
// engine's deterministic event order, so verdicts are a pure function
// of (plan, seed, workload, topology).
type Injector struct {
	Plan  Plan
	Stats Stats

	rng *sim.Rand
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{Plan: plan, rng: sim.NewRand(plan.Seed)}
}

// hit reports whether fault f fires for an event at virtual time now,
// drawing the probability coin if the window is open.
func (in *Injector) hit(f *Fault, now uint64) bool {
	if now < f.At || (f.Until != 0 && now >= f.Until) {
		return false
	}
	if f.Prob <= 0 || f.Prob >= 1 {
		return true
	}
	return in.rng.Float64() < f.Prob
}

// has reports whether the plan contains any fault of the given kinds.
func (in *Injector) has(kinds ...Kind) bool {
	for i := range in.Plan.Faults {
		for _, k := range kinds {
			if in.Plan.Faults[i].Kind == k {
				return true
			}
		}
	}
	return false
}

// Arm installs the plan's machine- and kernel-level hooks: crash events
// are scheduled on the machine's engine, and signal/writeback/walk hooks are installed only for fault kinds the
// plan actually contains, so an empty plan changes nothing.
func (in *Injector) Arm(m *hw.Machine, kernels ...*ck.Kernel) {
	for i := range in.Plan.Faults {
		f := &in.Plan.Faults[i]
		switch f.Kind {
		case CrashKernel:
			if f.MPM < 0 || f.MPM >= len(kernels) {
				continue
			}
			victim := kernels[f.MPM]
			victim.MPM.Engine.ScheduleAt(f.At, func() {
				in.Stats.Crashes++
				victim.Crash()
			})
		case KillRunning:
			if f.MPM < 0 || f.MPM >= len(m.MPMs) {
				continue
			}
			mpm := m.MPMs[f.MPM]
			if f.CPU < 0 || f.CPU >= len(mpm.CPUs) {
				continue
			}
			cpu := mpm.CPUs[f.CPU]
			mpm.Engine.ScheduleAt(f.At, func() {
				if cur := cpu.Cur; cur != nil {
					in.Stats.ExecsKilled++
					cur.Kill()
				}
			})
		}
	}
	if in.has(WalkError) {
		for _, mpm := range m.MPMs {
			mpm.WalkFault = in.walkFault
		}
	}
	if in.has(DropSignal, DupSignal) {
		for _, k := range kernels {
			k.SignalFault = in.signalFaultOn(k.MPM.Engine)
		}
	}
	if in.has(CorruptWriteback) {
		for _, k := range kernels {
			k.WritebackFault = in.writebackFaultOn(k.MPM.Engine)
		}
	}
}

// ArmNIC installs the plan's frame faults on an Ethernet interface.
func (in *Injector) ArmNIC(n *dev.NIC) {
	if !in.has(DropFrame, DupFrame, DelayFrame) {
		return
	}
	n.TxFault = in.frameFaultOn(n.MPM.Engine)
}

// ArmFiber installs the plan's frame faults on a fiber port.
func (in *Injector) ArmFiber(p *dev.FiberPort) {
	if !in.has(DropFrame, DupFrame, DelayFrame) {
		return
	}
	p.TxFault = in.frameFaultOn(p.MPM.Engine)
}

func (in *Injector) walkFault(e *hw.Exec, _ uint32) bool {
	now := e.Now()
	for i := range in.Plan.Faults {
		f := &in.Plan.Faults[i]
		if f.Kind == WalkError && in.hit(f, now) {
			in.Stats.WalkErrors++
			return true
		}
	}
	return false
}

func (in *Injector) signalFaultOn(eng *sim.Engine) func(ck.ObjID, uint32) ck.SignalVerdict {
	return func(_ ck.ObjID, _ uint32) ck.SignalVerdict {
		now := eng.Now()
		var v ck.SignalVerdict
		for i := range in.Plan.Faults {
			f := &in.Plan.Faults[i]
			switch f.Kind {
			case DropSignal:
				if !v.Drop && in.hit(f, now) {
					v.Drop = true
					in.Stats.SignalsDropped++
				}
			case DupSignal:
				if !v.Dup && in.hit(f, now) {
					v.Dup = true
					in.Stats.SignalsDuplicated++
				}
			}
		}
		return v
	}
}

func (in *Injector) writebackFaultOn(eng *sim.Engine) func(string, ck.ObjID) bool {
	return func(_ string, _ ck.ObjID) bool {
		now := eng.Now()
		for i := range in.Plan.Faults {
			f := &in.Plan.Faults[i]
			if f.Kind == CorruptWriteback && in.hit(f, now) {
				in.Stats.WritebacksCorrupted++
				return true
			}
		}
		return false
	}
}

func (in *Injector) frameFaultOn(eng *sim.Engine) func([]byte) dev.FrameFault {
	return func(_ []byte) dev.FrameFault {
		now := eng.Now()
		// A lost frame cannot also be duplicated or delayed: drop
		// verdicts short-circuit, so the stats match what the wire
		// actually does.
		for i := range in.Plan.Faults {
			f := &in.Plan.Faults[i]
			if f.Kind == DropFrame && in.hit(f, now) {
				in.Stats.FramesDropped++
				return dev.FrameFault{Drop: true}
			}
		}
		var ff dev.FrameFault
		for i := range in.Plan.Faults {
			f := &in.Plan.Faults[i]
			switch f.Kind {
			case DupFrame:
				if !ff.Dup && in.hit(f, now) {
					ff.Dup = true
					in.Stats.FramesDuplicated++
				}
			case DelayFrame:
				if in.hit(f, now) {
					ff.Delay += f.Delay
					in.Stats.FramesDelayed++
				}
			}
		}
		return ff
	}
}
