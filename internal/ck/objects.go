package ck

import (
	"vpp/internal/hw"
)

// Paper Table 1: descriptor sizes in bytes and default cache geometry.
// Descriptor arrays are accounted against local RAM with these sizes so
// the Section 5.2 space arithmetic reproduces exactly.
const (
	KernelObjBytes  = 2160
	SpaceObjBytes   = 60
	ThreadObjBytes  = 532
	MappingObjBytes = depRecordBytes // 16

	DefaultKernelSlots  = 16
	DefaultSpaceSlots   = 64
	DefaultThreadSlots  = 256
	DefaultMappingSlots = 65536
)

// NumPriorities is the fixed-priority range [0, NumPriorities); larger
// is more urgent.
const NumPriorities = 64

// Config tunes one Cache Kernel instance. The zero value is completed to
// the paper's prototype configuration by DefaultConfig.
type Config struct {
	KernelSlots  int
	SpaceSlots   int
	ThreadSlots  int
	MappingSlots int
	PMapBuckets  int

	// TimeSlice is the per-priority round-robin quantum in cycles.
	TimeSlice uint64

	// AccountingWindow is the processor-quota evaluation period in
	// cycles (the paper allocates percentages over extended periods).
	AccountingWindow uint64

	// RTLBEntries sizes the per-processor reverse TLB; 0 selects the
	// default and a negative value disables it, forcing the two-stage
	// pmap lookup on every signal (ablation A1).
	RTLBEntries int

	// SignalQueueLimit bounds per-thread queued address-valued signals.
	SignalQueueLimit int
}

// DefaultConfig returns the paper's prototype configuration.
func DefaultConfig() Config {
	return Config{
		KernelSlots:      DefaultKernelSlots,
		SpaceSlots:       DefaultSpaceSlots,
		ThreadSlots:      DefaultThreadSlots,
		MappingSlots:     DefaultMappingSlots,
		PMapBuckets:      16384,
		TimeSlice:        10 * 1000 * hw.CyclesPerMicrosecond, // 10 ms
		AccountingWindow: 100 * 1000 * hw.CyclesPerMicrosecond,
		RTLBEntries:      16,
		SignalQueueLimit: 16,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.KernelSlots == 0 {
		c.KernelSlots = d.KernelSlots
	}
	if c.SpaceSlots == 0 {
		c.SpaceSlots = d.SpaceSlots
	}
	if c.ThreadSlots == 0 {
		c.ThreadSlots = d.ThreadSlots
	}
	if c.MappingSlots == 0 {
		c.MappingSlots = d.MappingSlots
	}
	if c.PMapBuckets == 0 {
		c.PMapBuckets = d.PMapBuckets
	}
	if c.TimeSlice == 0 {
		c.TimeSlice = d.TimeSlice
	}
	if c.AccountingWindow == 0 {
		c.AccountingWindow = d.AccountingWindow
	}
	if c.RTLBEntries == 0 {
		c.RTLBEntries = d.RTLBEntries
	}
	if c.SignalQueueLimit == 0 {
		c.SignalQueueLimit = d.SignalQueueLimit
	}
	return c
}

// TrapHandler is an application kernel's trap entry point, run (in the
// trapping thread's context, switched to the kernel's address space) when
// one of its threads executes a trap instruction outside the kernel's own
// space. It returns the two result registers.
type TrapHandler func(e *hw.Exec, thread ObjID, no uint32, args []uint32) (uint32, uint32)

// FaultHandler is an application kernel's access-error entry point
// (paper Figure 2, step 2-5). space identifies the faulting thread's
// address space. When the handler returns true the faulting access
// retries; returning false abandons the access and terminates the
// thread (the SEGV-kill path).
type FaultHandler func(e *hw.Exec, thread, space ObjID, va uint32, write bool, kind hw.Fault) bool

// Writeback receives object state displaced from the Cache Kernel. Every
// application kernel provides one; calls are charged to the execution
// that caused the displacement, modeling the writeback RPC channel.
type Writeback interface {
	MappingWriteback(st MappingState)
	ThreadWriteback(id ObjID, st ThreadState)
	SpaceWriteback(id ObjID)
	KernelWriteback(id ObjID)
}

// KernelAttrs is the loadable state of a kernel object.
type KernelAttrs struct {
	Name     string
	Trap     TrapHandler
	Fault    FaultHandler
	Wb       Writeback
	MaxPrio  int
	CPUShare []int // percent per CPU of the MPM; nil = 100 each
	// LockQuota bounds locked objects: [kernel, space, thread, mapping].
	LockQuota [4]int
	Locked    bool
}

// KernelObj is the cached descriptor of one application kernel.
type KernelObj struct {
	id    ObjID
	slot  int32
	owner *KernelObj // the SRM, or self for the first kernel
	attrs KernelAttrs

	// space is the application kernel's own address space, in which its
	// traps count as Cache Kernel calls.
	space *SpaceObj

	// access is the memory access array: two bits per 512 KB page group
	// across the 4 GB physical space (2 KB total, dominated by it the
	// descriptor is 2160 bytes).
	access [pageGroups / 4]byte

	// usage is consumed processor time (cycles, rate-adjusted) in the
	// current accounting window, per CPU of the MPM.
	usage       []uint64
	windowStart uint64
	overQuota   []bool

	lockedCount [4]int

	// Owned loaded objects, for dependency-ordered unload.
	spaces  map[int32]*SpaceObj
	threads map[int32]*ThreadObj
}

const pageGroups = 1 << 13 // 4 GB / 512 KB

// ID reports the kernel object's current identifier.
func (ko *KernelObj) ID() ObjID { return ko.id }

// Name reports the kernel's name.
func (ko *KernelObj) Name() string { return ko.attrs.Name }

// groupAccess returns the two access bits for page group g.
type groupRights byte

const (
	rightRead  groupRights = 1
	rightWrite groupRights = 2
)

func (ko *KernelObj) groupAccess(g uint32) groupRights {
	return groupRights(ko.access[g/4]>>((g%4)*2)) & 3
}

func (ko *KernelObj) setGroupAccess(g uint32, r groupRights) {
	shift := (g % 4) * 2
	ko.access[g/4] = ko.access[g/4]&^(3<<shift) | byte(r)<<shift
}

// SpaceObj is the cached descriptor of one address space.
type SpaceObj struct {
	id    ObjID
	slot  int32
	owner *KernelObj
	hw    *hw.Space

	mappings int // loaded physical-to-virtual records
	threads  map[int32]*ThreadObj
}

// ID reports the space object's current identifier.
func (so *SpaceObj) ID() ObjID { return so.id }

// threadState enumerates a loaded thread's scheduling state.
type threadState uint8

const (
	threadReady threadState = iota
	threadRunning
	threadWaiting   // blocked in WaitSignal
	threadSuspended // forced off-CPU, not ready (being unloaded/examined)
)

// ThreadState is the loadable/written-back state of a thread.
type ThreadState struct {
	Regs     hw.Regs
	Priority int
	// Exec is the machine execution context (register file plus kernel
	// stack in the paper; here the persistent coroutine). It survives
	// across Cache Kernel load/unload cycles.
	Exec *hw.Exec
}

// ThreadObj is the cached descriptor of one thread.
type ThreadObj struct {
	id    ObjID
	slot  int32
	owner *KernelObj
	space *SpaceObj
	exec  *hw.Exec

	prio  int
	state threadState
	cpu   *hw.CPU // valid while running

	dispatchedAt uint64
	forceOff     bool
	queued       bool

	waitingSignal bool
	sigPending    bool
	sigValue      uint32
	sigQueue      []uint32

	// sigRecords are dependency-record handles of signal registrations
	// naming this thread, unloaded with it (Figure 6).
	sigRecords map[int32]struct{}

	// faultDepth and optResumed track the access-error protocol: a
	// handler that used the combined load-and-resume call sets
	// optResumed so the separate resume charge is skipped.
	faultDepth int
	optResumed bool
}

// ID reports the thread object's current identifier.
func (to *ThreadObj) ID() ObjID { return to.id }

// Priority reports the thread's loaded priority.
func (to *ThreadObj) Priority() int { return to.prio }

// MappingSpec describes a page mapping to load (paper §2.1-2.2).
type MappingSpec struct {
	VA  uint32 // virtual page address (page aligned)
	PFN uint32 // physical frame number

	Writable bool
	Cachable bool
	Message  bool // page is in message mode
	Locked   bool

	// SignalThread, when non-zero, registers an address-valued signal
	// delivery to that thread for writes to this page.
	SignalThread ObjID

	// CopyOnWriteFrom, when non-zero, records a deferred-copy source
	// frame for this mapping.
	CopyOnWriteFrom uint32
}

// MappingState is the written-back state of a page mapping.
type MappingState struct {
	Space ObjID
	VA    uint32
	PFN   uint32

	Referenced bool
	Modified   bool
	Writable   bool
	Message    bool

	SignalThread    ObjID
	CopyOnWriteFrom uint32
}
