package ck

import (
	"fmt"

	"vpp/internal/hw"
	"vpp/internal/pagetable"
)

// Snapshot support, two tiers.
//
// The read-only tier (Snap, below) is the charge-free inspection view
// the external correctness oracles use.
//
// The structural tier (State / CaptureState / RestoreState / Resume)
// is the mutable half of whole-machine snapshot/fork: it captures the
// complete pure-data state of a Cache Kernel instance — every cache's
// exact slot generations, lock bits, LRU and free-list order, every
// loaded descriptor's fields, the dependency-record map, the reverse
// TLBs, statistics, epoch and map version — such that a fresh instance
// restored from it is indistinguishable from the original: it mints
// the same future identifiers, evicts the same victims, and reports
// the same counters. What it deliberately cannot capture is execution:
// a parked coroutine's stack is opaque to the host, so capture refuses
// (ErrSnapshotBusy) while any call is in flight or any thread
// descriptor is loaded. Such a machine cannot be forked; it must be
// drained first.

// String names a thread scheduling state for snapshots and diagnostics.
func (s threadState) String() string {
	switch s {
	case threadReady:
		return "ready"
	case threadRunning:
		return "running"
	case threadWaiting:
		return "waiting"
	case threadSuspended:
		return "suspended"
	}
	return "invalid"
}

// KernelSnap is the snapshot of one loaded kernel descriptor.
type KernelSnap struct {
	ID     ObjID
	Name   string
	Locked bool
	// Spaces and Threads count this kernel's loaded dependents.
	Spaces  int
	Threads int
}

// SpaceSnap is the snapshot of one loaded space descriptor.
type SpaceSnap struct {
	ID       ObjID
	Owner    ObjID
	Mappings int
	Threads  int
	Locked   bool
}

// ThreadSnap is the snapshot of one loaded thread descriptor.
type ThreadSnap struct {
	ID       ObjID
	Owner    ObjID
	Space    ObjID
	Priority int
	State    string
	// ExecName and ExecFinished describe the machine execution context
	// bound to the descriptor (the persistent coroutine).
	ExecName     string
	ExecFinished bool
	// SigRecords counts signal-delivery dependency records naming this
	// thread; SigQueued counts queued address-valued signals.
	SigRecords int
	SigQueued  int
	Locked     bool
}

// Snap is a consistent view of one Cache Kernel instance's descriptor
// caches at a quiescent point.
type Snap struct {
	Epoch   uint64
	Kernels []KernelSnap
	Spaces  []SpaceSnap
	Threads []ThreadSnap
	// MappingsLoaded totals loaded physical-to-virtual records across
	// all loaded spaces (signal registrations and deferred-copy records
	// are not mappings and are excluded).
	MappingsLoaded int
}

// Snapshot captures every loaded descriptor. The caller must ensure the
// instance is quiescent enough for the answer to be meaningful (no
// descriptor operation mid-flight on another CPU); the capture itself
// performs no simulated work and is safe at any host point.
func (k *Kernel) Snapshot() Snap {
	var s Snap
	s.Epoch = k.Epoch
	k.kernels.forEach(func(idx int32, ko *KernelObj) bool {
		s.Kernels = append(s.Kernels, KernelSnap{
			ID:      ko.id,
			Name:    ko.attrs.Name,
			Locked:  k.kernels.lockedSlot(idx),
			Spaces:  len(ko.spaces),
			Threads: len(ko.threads),
		})
		return true
	})
	k.spaces.forEach(func(idx int32, so *SpaceObj) bool {
		s.Spaces = append(s.Spaces, SpaceSnap{
			ID:       so.id,
			Owner:    so.owner.id,
			Mappings: so.mappings,
			Threads:  len(so.threads),
			Locked:   k.spaces.lockedSlot(idx),
		})
		s.MappingsLoaded += so.mappings
		return true
	})
	k.threads.forEach(func(idx int32, to *ThreadObj) bool {
		ts := ThreadSnap{
			ID:         to.id,
			Owner:      to.owner.id,
			Space:      to.space.id,
			Priority:   to.prio,
			State:      to.state.String(),
			SigRecords: len(to.sigRecords),
			SigQueued:  len(to.sigQueue),
			Locked:     k.threads.lockedSlot(idx),
		}
		if to.exec != nil {
			ts.ExecName = to.exec.Name
			ts.ExecFinished = to.exec.Finished()
		}
		s.Threads = append(s.Threads, ts)
		return true
	})
	return s
}

// ErrSnapshotBusy is returned by CaptureState while the instance has
// execution state a structural snapshot cannot carry: a Cache Kernel
// call parked mid-mutation at a charge point, or a loaded thread
// descriptor (whose coroutine stack the host cannot serialize). The
// caller must drain the machine first.
var ErrSnapshotBusy = fmt.Errorf("ck: snapshot refused: execution state in flight")

func errShape(cache, what string, got, want int) error {
	return fmt.Errorf("ck: %s cache restore: %s mismatch (%d vs %d)", cache, what, got, want)
}

// KernelRec is one loaded kernel descriptor's captured state; its
// slot is the kernel cache's LRU entry at the same position. Handler
// closures (Trap/Fault/Wb) are code bound to the capturing process and
// are re-supplied at restore time via the bind callback.
type KernelRec struct {
	Name        string
	MaxPrio     int
	CPUShare    []int
	LockQuota   [4]int
	AttrsLocked bool
	OwnerSlot   int32 // kernel-cache slot of the owning kernel (self for the first)
	SpaceSlot   int32 // space-cache slot of the designated space, -1 if none
	Access      [pageGroups / 4]byte
	Usage       []uint64
	WindowStart uint64
	OverQuota   []bool
	LockedCount [4]int
}

// PTERec is one captured page-table entry (referenced/modified bits
// included in the PTE value).
type PTERec struct {
	VA  uint32
	PTE pagetable.PTE
}

// SpaceRec is one loaded space descriptor's captured state, including
// its full translation tree, one entry per mapped page; its slot is the
// space cache's LRU entry at the same position.
type SpaceRec struct {
	OwnerSlot int32
	PTEs      []PTERec
}

// DepRec mirrors one live dependency record of the physical memory
// map, tagged with its pool slot.
type DepRec struct {
	Slot int32
	Key  uint32
	Dep  uint32
	Ctx  uint32
}

// PMapState is the captured physical memory map: the records, not
// their hash chains, which restore rebuilds. The pool is sparse at any
// quiescent point, so only the live records are stored, grouped chain
// by chain in bucket order, each chain from its last record to its
// head; the slots of removed records, each its slot's reload mark, in
// slot order; and the free stack as its canonical-prefix length and
// tail, as every descriptor cache's is.
type PMapState struct {
	Recs    []DepRec
	Removed []int32
	Free    FreeStack
	Hand    int32
	Reloads uint64
}

// RTLBReceiverState is one cached signal-delivery target.
type RTLBReceiverState struct {
	ThreadSlot int32
	Gen        uint32
	VA         uint32
}

// RTLBEntryState is one captured reverse-TLB entry.
type RTLBEntryState struct {
	Valid     bool
	PFN       uint32
	Version   uint64
	Receivers []RTLBReceiverState
}

// RTLBState is one processor's captured reverse TLB.
type RTLBState struct {
	Entries []RTLBEntryState
	Next    int
}

// State is the complete structural state of one Cache Kernel instance
// at a quiescent point. It is pure data: restoring it into a fresh
// instance (RestoreState) reproduces every future allocation,
// eviction and identifier the original would have produced.
type State struct {
	// Cfg is the instance's (defaults-applied) configuration; a fork
	// builds its fresh instance from it before restoring.
	Cfg       Config
	Epoch     uint64
	PMVersion uint64
	Stats     Stats
	FirstSlot int32 // -1 when not booted

	Kernels    CacheShape
	KernelRecs []KernelRec // loaded kernels, LRU order
	Spaces     CacheShape
	SpaceRecs  []SpaceRec // loaded spaces, LRU order
	// Threads carries shape only (generations, free-list order): a
	// quiescent instance has no loaded thread descriptors, but the
	// per-slot generations decide every future thread identifier.
	Threads CacheShape

	PMap  PMapState
	RTLBs []RTLBState
}

// CaptureState captures the instance's structural state. It refuses
// with ErrSnapshotBusy while any Cache Kernel call is in flight or any
// thread descriptor is loaded — both imply live coroutines whose
// stacks cannot be serialized.
func (k *Kernel) CaptureState() (*State, error) {
	if k.inCalls != 0 {
		return nil, fmt.Errorf("%w: %d call(s) parked mid-mutation", ErrSnapshotBusy, k.inCalls)
	}
	if n := k.threads.Loaded(); n != 0 {
		return nil, fmt.Errorf("%w: %d loaded thread descriptor(s)", ErrSnapshotBusy, n)
	}
	st := &State{
		Cfg:       k.Cfg,
		Epoch:     k.Epoch,
		PMVersion: k.pmVersion,
		Stats:     k.Stats,
		FirstSlot: -1,
		Kernels:   k.kernels.shape(),
		Spaces:    k.spaces.shape(),
		Threads:   k.threads.shape(),
	}
	if k.first != nil {
		st.FirstSlot = k.first.slot
	}
	k.kernels.forEach(func(_ int32, ko *KernelObj) bool {
		rec := KernelRec{
			Name:        ko.attrs.Name,
			MaxPrio:     ko.attrs.MaxPrio,
			CPUShare:    append([]int(nil), ko.attrs.CPUShare...),
			LockQuota:   ko.attrs.LockQuota,
			AttrsLocked: ko.attrs.Locked,
			OwnerSlot:   ko.owner.slot,
			SpaceSlot:   -1,
			Access:      ko.access,
			Usage:       append([]uint64(nil), ko.usage...),
			WindowStart: ko.windowStart,
			OverQuota:   append([]bool(nil), ko.overQuota...),
			LockedCount: ko.lockedCount,
		}
		if ko.space != nil {
			rec.SpaceSlot = ko.space.slot
		}
		st.KernelRecs = append(st.KernelRecs, rec)
		return true
	})
	k.spaces.forEach(func(_ int32, so *SpaceObj) bool {
		rec := SpaceRec{OwnerSlot: so.owner.slot}
		so.hw.Table.Walk(func(va uint32, pte pagetable.PTE) bool {
			rec.PTEs = append(rec.PTEs, PTERec{VA: va, PTE: pte})
			return true
		})
		st.SpaceRecs = append(st.SpaceRecs, rec)
		return true
	})
	st.PMap = k.pm.state()
	for _, r := range k.rtlbs {
		rs := RTLBState{Entries: make([]RTLBEntryState, len(r.entries)), Next: r.next}
		for i, e := range r.entries {
			es := RTLBEntryState{Valid: e.valid, PFN: e.pfn, Version: e.version}
			for _, rcv := range e.receivers {
				es.Receivers = append(es.Receivers, RTLBReceiverState{ThreadSlot: rcv.threadSlot, Gen: rcv.gen, VA: rcv.va})
			}
			rs.Entries[i] = es
		}
		st.RTLBs = append(st.RTLBs, rs)
	}
	return st, nil
}

// RestoreState overwrites a freshly created (never-booted) instance
// with a captured state. The instance must have the captured
// configuration. bind re-supplies each kernel's handler closures by
// name — handlers are code referencing the restoring process's own
// objects and cannot ride in the State; the structural attrs fields
// (MaxPrio, CPUShare, LockQuota, Locked) are taken from the capture
// regardless of what bind returns.
func (k *Kernel) RestoreState(st *State, bind func(name string) KernelAttrs) error {
	if k.first != nil || k.kernels.Loaded() != 0 || k.spaces.Loaded() != 0 || k.threads.Loaded() != 0 {
		return fmt.Errorf("ck: RestoreState on a non-fresh instance")
	}
	if st.Cfg != k.Cfg {
		return fmt.Errorf("ck: restore: configuration %+v into an instance of %+v", st.Cfg, k.Cfg)
	}
	if len(st.KernelRecs) != len(st.Kernels.LRU) || len(st.SpaceRecs) != len(st.Spaces.LRU) {
		return fmt.Errorf("ck: restore: %d kernel and %d space records for %d and %d loaded slots",
			len(st.KernelRecs), len(st.SpaceRecs), len(st.Kernels.LRU), len(st.Spaces.LRU))
	}
	// Pass 1: rebuild the kernel cache; owner/space links need every
	// object to exist first and are wired in pass 3.
	err := k.kernels.restoreShape(st.Kernels, func(i int, slot int32) (*KernelObj, error) {
		rec := &st.KernelRecs[i]
		attrs := KernelAttrs{}
		if bind != nil {
			attrs = bind(rec.Name)
		}
		attrs.Name = rec.Name
		attrs.MaxPrio = rec.MaxPrio
		attrs.CPUShare = append([]int(nil), rec.CPUShare...)
		attrs.LockQuota = rec.LockQuota
		attrs.Locked = rec.AttrsLocked
		ko := &KernelObj{
			id:          makeID(ObjKernel, st.Kernels.Gens[slot], int(slot)),
			slot:        slot,
			attrs:       attrs,
			access:      rec.Access,
			usage:       append([]uint64(nil), rec.Usage...),
			windowStart: rec.WindowStart,
			overQuota:   append([]bool(nil), rec.OverQuota...),
			lockedCount: rec.LockedCount,
			spaces:      make(map[int32]*SpaceObj),
			threads:     make(map[int32]*ThreadObj),
		}
		return ko, nil
	})
	if err != nil {
		return err
	}
	// Pass 2: rebuild the space cache, including each space's
	// translation tree (page tables re-allocate from local RAM; the
	// machine-level restore pins the allocator's accounting afterward).
	err = k.spaces.restoreShape(st.Spaces, func(i int, slot int32) (*SpaceObj, error) {
		rec := &st.SpaceRecs[i]
		owner, ok := k.kernels.peek(rec.OwnerSlot)
		if !ok {
			return nil, fmt.Errorf("ck: restore: space slot %d names unloaded owner slot %d", slot, rec.OwnerSlot)
		}
		tbl, terr := pagetable.New(k.MPM.LocalRAM)
		if terr != nil {
			return nil, ErrNoMemory
		}
		for _, pe := range rec.PTEs {
			if terr := tbl.Insert(pe.VA, pe.PTE); terr != nil {
				return nil, fmt.Errorf("ck: restore: space slot %d: %w", slot, terr)
			}
		}
		so := &SpaceObj{
			id:       makeID(ObjSpace, st.Spaces.Gens[slot], int(slot)),
			slot:     slot,
			owner:    owner,
			hw:       &hw.Space{Table: tbl, ASID: uint16(slot) + 1},
			mappings: len(rec.PTEs),
			threads:  make(map[int32]*ThreadObj),
		}
		owner.spaces[slot] = so
		return so, nil
	})
	if err != nil {
		return err
	}
	// Pass 3: kernel owner and designated-space links.
	for i, slot := range st.Kernels.LRU {
		rec := &st.KernelRecs[i]
		ko := k.kernels.at(slot)
		owner, ok := k.kernels.peek(rec.OwnerSlot)
		if !ok {
			return fmt.Errorf("ck: restore: kernel slot %d names unloaded owner slot %d", slot, rec.OwnerSlot)
		}
		ko.owner = owner
		if rec.SpaceSlot >= 0 {
			so, ok := k.spaces.peek(rec.SpaceSlot)
			if !ok {
				return fmt.Errorf("ck: restore: kernel slot %d names unloaded space slot %d", slot, rec.SpaceSlot)
			}
			ko.space = so
			so.kernel = ko
		}
	}
	// Threads: shape only — the capture precondition guarantees no
	// loaded slots, but the generations decide future identifiers.
	err = k.threads.restoreShape(st.Threads, func(_ int, slot int32) (*ThreadObj, error) {
		return nil, fmt.Errorf("ck: restore: captured state has a loaded thread slot %d", slot)
	})
	if err != nil {
		return err
	}
	if err := k.pm.restore(&st.PMap); err != nil {
		return err
	}
	if len(st.RTLBs) != len(k.rtlbs) {
		return fmt.Errorf("ck: restore: %d reverse TLBs into %d processors", len(st.RTLBs), len(k.rtlbs))
	}
	for i, rs := range st.RTLBs {
		r := k.rtlbs[i]
		if len(rs.Entries) != len(r.entries) {
			return fmt.Errorf("ck: restore: reverse TLB %d geometry mismatch", i)
		}
		for j, es := range rs.Entries {
			e := rtlbEntry{valid: es.Valid, pfn: es.PFN, version: es.Version}
			for _, rcv := range es.Receivers {
				e.receivers = append(e.receivers, rtlbReceiver{threadSlot: rcv.ThreadSlot, gen: rcv.Gen, va: rcv.VA})
			}
			r.entries[j] = e
		}
		r.next = rs.Next
	}
	if st.FirstSlot >= 0 {
		first, ok := k.kernels.peek(st.FirstSlot)
		if !ok {
			return fmt.Errorf("ck: restore: first-kernel slot %d not loaded", st.FirstSlot)
		}
		k.first = first
	}
	k.Epoch = st.Epoch
	k.pmVersion = st.PMVersion
	k.Stats = st.Stats
	return nil
}

// Resume creates and dispatches a new thread of the first kernel,
// running body in the first kernel's designated address space. It is
// how continuation work enters a machine at a quiescent point — both a
// freshly booted parent and a fork restored from its snapshot inject
// the identical continuation this way, which is what makes the two
// runs comparable instruction for instruction.
func (k *Kernel) Resume(name string, prio int, body func(*hw.Exec)) (ObjID, error) {
	if k.first == nil {
		return 0, fmt.Errorf("ck: Resume before boot/restore")
	}
	ko := k.first
	if ko.space == nil {
		return 0, ErrNoKernelSpace
	}
	exec := k.MPM.NewExec(name, body)
	to, err := k.newThreadObj(nil, ko, ko.space, ThreadState{Priority: prio, Exec: exec})
	if err != nil {
		return 0, err
	}
	k.sched.dispatch(k.MPM.CPUs[0], to)
	return to.id, nil
}
