package hw

import (
	"fmt"

	"vpp/internal/pagetable"
)

// Hardware-level snapshot state: everything below the supervisor that a
// whole-machine fork must carry — TLB and second-level cache contents,
// local-RAM accounting, and the machine's clocks. Physical memory is
// captured separately as a copy-on-write FrameImage (see mem.go).

// TLBEntryState is one captured TLB entry.
type TLBEntryState struct {
	ASID  uint16
	Valid bool
	VPN   uint32
	PTE   pagetable.PTE
}

// TLBState is the complete state of one CPU's TLB: the entry array in
// slot order, the round-robin replacement cursor and the accumulated
// statistics.
type TLBState struct {
	Entries []TLBEntryState
	Next    int
	Hits    uint64
	Misses  uint64
}

// State captures the TLB.
func (t *TLB) State() TLBState {
	st := TLBState{
		Entries: make([]TLBEntryState, len(t.entries)),
		Next:    t.next,
		Hits:    t.Hits,
		Misses:  t.Misses,
	}
	for i, e := range t.entries {
		st.Entries[i] = TLBEntryState{ASID: e.asid, Valid: e.valid, VPN: e.vpn, PTE: e.pte}
	}
	return st
}

// Restore overwrites the TLB with a captured state. The entry count
// must match the TLB's geometry, the cursor must name an entry and no
// two valid entries may share an (asid, vpn) pair; a state with two
// would leave one of them unreachable. A rejected duplicate leaves the
// TLB flushed.
func (t *TLB) Restore(st TLBState) error {
	if len(st.Entries) != len(t.entries) {
		return fmt.Errorf("hw: TLB restore size mismatch: %d entries into %d", len(st.Entries), len(t.entries))
	}
	if st.Next < 0 || st.Next >= len(t.entries) {
		return fmt.Errorf("hw: TLB restore cursor %d out of range [0, %d)", st.Next, len(t.entries))
	}
	clear(t.index)
	for i, e := range st.Entries {
		t.entries[i] = tlbEntry{asid: e.ASID, valid: e.Valid, vpn: e.VPN, pte: e.PTE}
		if !e.Valid {
			continue
		}
		s, dup := t.find(e.ASID, e.VPN)
		if dup {
			first := t.index[s] - 1
			t.InvalidateAll()
			return fmt.Errorf("hw: TLB restore: entries %d and %d both map asid %d vpn %#x", first, i, e.ASID, e.VPN)
		}
		t.index[s] = int32(i) + 1
	}
	t.next = st.Next
	t.Hits = st.Hits
	t.Misses = st.Misses
	return nil
}

// L2Tag is one non-zero second-level cache tag: line index and value.
type L2Tag struct {
	Line int32
	Tag  uint32
}

// L2State is the complete state of an MPM's second-level cache: the
// non-zero tags (the array is sparse on any machine that has not
// churned its whole cache) and the accumulated statistics.
type L2State struct {
	NTags  int32 // tag-array length (geometry check)
	Tags   []L2Tag
	Hits   uint64
	Misses uint64
}

// State captures the cache.
func (c *L2Cache) State() L2State {
	st := L2State{NTags: int32(c.lines), Hits: c.Hits, Misses: c.Misses}
	for i, n := range c.dir {
		if n == 0 {
			continue
		}
		for j, t := range c.chunks[n-1] {
			if t != 0 {
				st.Tags = append(st.Tags, L2Tag{Line: int32(i*l2ChunkLines + j), Tag: t})
			}
		}
	}
	return st
}

// Restore overwrites the cache with a captured state. The old chunks
// are dropped, and only the chunks holding a captured tag are
// allocated, in the capture's line order.
func (c *L2Cache) Restore(st L2State) error {
	if st.NTags < 0 || uint32(st.NTags) != c.lines {
		return fmt.Errorf("hw: L2 restore size mismatch: %d tags into %d", st.NTags, c.lines)
	}
	clear(c.dir)
	clear(c.chunks)
	c.chunks = c.chunks[:0]
	c.last = 0
	for _, t := range st.Tags {
		if t.Line < 0 || uint32(t.Line) >= c.lines {
			return fmt.Errorf("hw: L2 restore line %d out of range", t.Line)
		}
		if t.Tag == 0 {
			continue
		}
		n := c.dir[t.Line/l2ChunkLines]
		if n == 0 {
			n = c.chunk(uint32(t.Line))
		}
		c.chunks[n-1][t.Line%l2ChunkLines] = t.Tag
	}
	c.Hits = st.Hits
	c.Misses = st.Misses
	return nil
}

// CPUState is one CPU's captured interrupt state: the pending-cause
// bitmask. A slice timer that fires while the CPU is idle leaves a
// pending bit behind; the next thread dispatched takes that interrupt
// at its first charge point and re-arms its slice, so a fork that
// dropped the bit would drift in virtual time from its parent.
type CPUState struct {
	Pending uint32
}

// State captures the CPU's interrupt state.
func (c *CPU) State() CPUState { return CPUState{Pending: c.pending} }

// RestoreIntr overwrites the CPU's interrupt state with a captured one.
// Like Post, it drops the running context's attention limit, so a
// restore during a run is seen at the next charge.
func (c *CPU) RestoreIntr(st CPUState) {
	c.pending = st.Pending
	c.MPM.Engine.Look()
}

// RAMState is a local-RAM allocator's captured accounting.
type RAMState struct {
	Used int
	Peak int
}

// State captures the allocator's accounting.
func (a *RAMAllocator) State() RAMState { return RAMState{Used: a.used, Peak: a.peak} }

// Quiescent reports whether the machine has fully drained — the engine
// is out of live coroutines and pending events and every CPU is idle —
// which is the precondition for a structural snapshot.
func (m *Machine) Quiescent() error {
	if err := m.Engine.Quiescent(); err != nil {
		return err
	}
	for _, mpm := range m.MPMs {
		for _, c := range mpm.CPUs {
			if c.Cur != nil {
				return fmt.Errorf("hw: machine not quiescent: cpu %d running %q", c.ID, c.Cur.Name)
			}
		}
	}
	return nil
}

// ClockState is the machine's captured virtual-time state: the global
// schedule-point time plus every CPU's own clock, which is where
// dispatched work resumes counting from.
type ClockState struct {
	Time uint64
	CPUs [][]uint64 // per MPM, per CPU
}

// CaptureClocks snapshots the machine's virtual time.
func (m *Machine) CaptureClocks() ClockState {
	cs := ClockState{Time: m.Now(), CPUs: make([][]uint64, len(m.MPMs))}
	for i, mpm := range m.MPMs {
		cs.CPUs[i] = make([]uint64, len(mpm.CPUs))
		for j, c := range mpm.CPUs {
			cs.CPUs[i][j] = c.Clock.Now()
		}
	}
	return cs
}

// WarpClocks advances the machine's clocks forward to a captured state:
// the engine to the global snapshot time and every CPU clock to
// its captured value. The machine must have the same topology as the
// capture; clocks never move backward (warping a fresh machine is the
// intended use).
func (m *Machine) WarpClocks(cs ClockState) error {
	if len(cs.CPUs) != len(m.MPMs) {
		return fmt.Errorf("hw: clock restore topology mismatch: %d MPMs into %d", len(cs.CPUs), len(m.MPMs))
	}
	m.Engine.Warp(cs.Time)
	for i, mpm := range m.MPMs {
		if len(cs.CPUs[i]) != len(mpm.CPUs) {
			return fmt.Errorf("hw: clock restore topology mismatch: %d CPUs into %d on MPM %d", len(cs.CPUs[i]), len(mpm.CPUs), i)
		}
		for j, c := range mpm.CPUs {
			c.Clock.AdvanceTo(cs.CPUs[i][j])
		}
	}
	return nil
}
