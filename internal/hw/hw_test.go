package hw

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vpp/internal/pagetable"
)

func TestPhysMemReadWrite(t *testing.T) {
	m := NewPhysMem(1 << 20)
	m.Write32(0x1000, 0xdeadbeef)
	if v := m.Read32(0x1000); v != 0xdeadbeef {
		t.Fatalf("read = %#x", v)
	}
	m.Write8(0x1004, 0x7f)
	if v := m.Read8(0x1004); v != 0x7f {
		t.Fatalf("read8 = %#x", v)
	}
	b := []byte("hello across pages")
	m.WriteBytes(PageSize-4, b)
	if got := string(m.ReadBytes(PageSize-4, uint32(len(b)))); got != string(b) {
		t.Fatalf("cross-page bytes = %q", got)
	}
}

func TestPhysMemAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	NewPhysMem(1 << 20).Read32(2)
}

func TestRAMAllocator(t *testing.T) {
	a := NewRAMAllocator("t", 100)
	if !a.Alloc(60) || !a.Alloc(40) {
		t.Fatal("allocations within budget failed")
	}
	if a.Alloc(1) {
		t.Fatal("over-budget allocation succeeded")
	}
	a.Free(50)
	if a.Used() != 50 || a.Peak() != 100 {
		t.Fatalf("used=%d peak=%d", a.Used(), a.Peak())
	}
}

func TestRAMAllocatorProperty(t *testing.T) {
	f := func(ops []int16) bool {
		a := NewRAMAllocator("p", 1<<20)
		outstanding := 0
		for _, op := range ops {
			n := int(op)
			if n >= 0 {
				if a.Alloc(n) {
					outstanding += n
				}
			} else if -n <= outstanding {
				a.Free(-n)
				outstanding += n
			}
			if a.Used() != outstanding {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestL2CacheHitMiss(t *testing.T) {
	c := NewL2Cache(1 << 10) // 32 lines
	if got := c.Access(0); got != CostMemMiss {
		t.Fatalf("first access cost = %d", got)
	}
	if got := c.Access(4); got != CostMemHit {
		t.Fatalf("same-line access cost = %d", got)
	}
	// Conflict: same index, different tag.
	if got := c.Access(1 << 10); got != CostMemMiss {
		t.Fatalf("conflict access cost = %d", got)
	}
	if got := c.Access(0); got != CostMemMiss {
		t.Fatalf("evicted line access cost = %d", got)
	}
	if c.Hits != 1 || c.Misses != 3 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestL2CacheFlushPage(t *testing.T) {
	c := NewL2Cache(1 << 20)
	c.Access(0x2000)
	c.FlushPage(0x2000)
	if got := c.Access(0x2000); got != CostMemMiss {
		t.Fatal("flushed line still hit")
	}
}

func TestTLBInsertLookupInvalidate(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(1, 0x10, pagetable.MakePTE(5, pagetable.PTEValid))
	if _, ok := tlb.Lookup(1, 0x10); !ok {
		t.Fatal("miss after insert")
	}
	if _, ok := tlb.Lookup(2, 0x10); ok {
		t.Fatal("hit with wrong ASID")
	}
	tlb.InvalidatePage(1, 0x10)
	if _, ok := tlb.Lookup(1, 0x10); ok {
		t.Fatal("hit after invalidate")
	}
}

func TestTLBRoundRobinEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, 1, pagetable.MakePTE(1, pagetable.PTEValid))
	tlb.Insert(1, 2, pagetable.MakePTE(2, pagetable.PTEValid))
	tlb.Insert(1, 3, pagetable.MakePTE(3, pagetable.PTEValid)) // evicts vpn 1
	if _, ok := tlb.Lookup(1, 1); ok {
		t.Fatal("evicted entry still present")
	}
	if _, ok := tlb.Lookup(1, 3); !ok {
		t.Fatal("new entry missing")
	}
}

func TestTLBUpgradeInPlace(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(1, 7, pagetable.MakePTE(9, pagetable.PTEValid))
	tlb.Insert(1, 7, pagetable.MakePTE(9, pagetable.PTEValid|pagetable.PTEWrite))
	pte, ok := tlb.Lookup(1, 7)
	if !ok || !pte.Writable() {
		t.Fatal("in-place upgrade failed")
	}
	n := 0
	for vpn := uint32(0); vpn < 16; vpn++ {
		if _, ok := tlb.Lookup(1, vpn); ok {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("duplicate entries: %d", n)
	}
}

func TestMachineGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MPMs = 3
	m := NewMachine(cfg)
	if len(m.MPMs) != 3 {
		t.Fatalf("MPMs = %d", len(m.MPMs))
	}
	ids := map[int]bool{}
	for _, mpm := range m.MPMs {
		if len(mpm.CPUs) != 4 {
			t.Fatalf("CPUs = %d", len(mpm.CPUs))
		}
		for _, c := range mpm.CPUs {
			if ids[c.ID] {
				t.Fatalf("duplicate CPU id %d", c.ID)
			}
			ids[c.ID] = true
		}
	}
}

// fakeSup is a minimal supervisor that loads identity mappings on fault.
type fakeSup struct {
	m          *Machine
	space      *Space
	faults     int
	traps      int
	messages   []uint32
	interrupts []uint32
}

func (s *fakeSup) Syscall(e *Exec, no uint32, args []uint32) (uint32, uint32) {
	s.traps++
	return no + 1, 0
}

func (s *fakeSup) AccessError(e *Exec, va uint32, write bool, f Fault) {
	s.faults++
	flags := pagetable.PTEValid | pagetable.PTEWrite
	if err := s.space.Table.Insert(va&^(PageSize-1), pagetable.MakePTE(va>>PageShift, flags)); err != nil {
		panic(err)
	}
}

func (s *fakeSup) Interrupt(e *Exec, pending uint32) {
	s.interrupts = append(s.interrupts, pending)
}
func (s *fakeSup) MessageWrite(e *Exec, va, pa uint32) {
	s.messages = append(s.messages, va)
}
func (s *fakeSup) TimerTick(c *CPU) {}
func (s *fakeSup) Exited(e *Exec)   {}

func newTestMachine(t *testing.T) (*Machine, *MPM, *fakeSup) {
	t.Helper()
	m := NewMachine(DefaultConfig())
	mpm := m.MPMs[0]
	tbl, err := pagetable.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	sup := &fakeSup{m: m, space: &Space{Table: tbl, ASID: 1}}
	mpm.Sup = sup
	return m, mpm, sup
}

func TestExecVirtualAccessWithDemandFault(t *testing.T) {
	m, mpm, sup := newTestMachine(t)
	var got uint32
	e := mpm.NewExec("user", func(e *Exec) {
		e.Space = sup.space
		e.Store32(0x0200_0000, 77)
		got = e.Load32(0x0200_0000)
	})
	mpm.CPUs[0].Dispatch(e)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("got %d", got)
	}
	if sup.faults != 1 {
		t.Fatalf("faults = %d, want 1", sup.faults)
	}
	// The word must be at the identity physical address.
	if v := m.Phys.Read32(0x0200_0000); v != 77 {
		t.Fatalf("phys = %d", v)
	}
}

// TestChargeInterruptWindow pins when a charge delivers the causes
// latched on its CPU: only Charge, only with a cause pending (posted or
// restored), and all pending causes at once.
func TestChargeInterruptWindow(t *testing.T) {
	m, mpm, sup := newTestMachine(t)
	e := mpm.NewExec("user", func(e *Exec) {
		c := e.CPU
		e.Charge(1)
		c.Post(4)
		e.ChargeNoIntr(1)
		if len(sup.interrupts) != 0 || c.Pending() != 4 {
			t.Errorf("delivered %v with no window, pending %#x", sup.interrupts, c.Pending())
		}
		c.Post(1)
		e.Charge(1)
		e.Charge(1)
		if !slices.Equal(sup.interrupts, []uint32{5}) || c.Pending() != 0 {
			t.Errorf("delivered %v, pending %#x; want [5] once, none left", sup.interrupts, c.Pending())
		}
		c.RestoreIntr(CPUState{Pending: 2})
		e.Charge(1)
		if !slices.Equal(sup.interrupts, []uint32{5, 2}) {
			t.Errorf("delivered %v after a restored cause; want [5 2]", sup.interrupts)
		}
	})
	mpm.CPUs[0].Dispatch(e)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
}

func TestExecTrapDispatch(t *testing.T) {
	m, mpm, sup := newTestMachine(t)
	var r uint32
	e := mpm.NewExec("user", func(e *Exec) {
		e.Space = sup.space
		r, _ = e.Trap(41)
	})
	mpm.CPUs[0].Dispatch(e)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if r != 42 || sup.traps != 1 {
		t.Fatalf("r=%d traps=%d", r, sup.traps)
	}
}

func TestMessageModeWriteRaisesSignal(t *testing.T) {
	m, mpm, sup := newTestMachine(t)
	sup.space.Table.Insert(0x5000_0000,
		pagetable.MakePTE(0x123, pagetable.PTEValid|pagetable.PTEWrite|pagetable.PTEMessage))
	e := mpm.NewExec("sender", func(e *Exec) {
		e.Space = sup.space
		e.Store32(0x5000_0010, 1)
		e.Load32(0x5000_0010) // reads do not signal
	})
	mpm.CPUs[0].Dispatch(e)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if len(sup.messages) != 1 || sup.messages[0] != 0x5000_0010 {
		t.Fatalf("messages = %#x", sup.messages)
	}
}

func TestExecModifiedBitSetOnWrite(t *testing.T) {
	m, mpm, sup := newTestMachine(t)
	va := uint32(0x6000_0000)
	sup.space.Table.Insert(va, pagetable.MakePTE(0x200, pagetable.PTEValid|pagetable.PTEWrite))
	e := mpm.NewExec("w", func(e *Exec) {
		e.Space = sup.space
		_ = e.Load32(va)
		pte, _ := sup.space.Table.Lookup(va)
		if pte&pagetable.PTEModified != 0 {
			t.Error("modified set by read")
		}
		e.Store32(va, 5)
	})
	mpm.CPUs[0].Dispatch(e)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	pte, _ := sup.space.Table.Lookup(va)
	if pte&pagetable.PTEModified == 0 || pte&pagetable.PTEReferenced == 0 {
		t.Fatalf("R/M not set: %#x", pte)
	}
}

func TestExecChargesTime(t *testing.T) {
	m, mpm, sup := newTestMachine(t)
	var start, end uint64
	e := mpm.NewExec("t", func(e *Exec) {
		e.Space = sup.space
		start = e.Now()
		for i := 0; i < 100; i++ {
			e.Store32(0x100_0000+uint32(i)*4, uint32(i))
		}
		end = e.Now()
	})
	mpm.CPUs[0].Dispatch(e)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if end <= start {
		t.Fatal("no time charged")
	}
	// 100 stores should cost at least 100 memory references.
	if end-start < 100*CostMemHit {
		t.Fatalf("charged only %d cycles", end-start)
	}
}

func TestTrapExitPanicsWithoutSupervisor(t *testing.T) {
	m := NewMachine(DefaultConfig())
	mpm := m.MPMs[0]
	e := mpm.NewExec("x", func(e *Exec) {
		defer func() {
			if recover() == nil {
				t.Error("trap without supervisor did not panic")
			}
			e.Exit()
		}()
		e.Trap(1)
	})
	mpm.CPUs[0].Dispatch(e)
	_ = m.Run(math.MaxUint64)
}

func TestFlushTLBSpaceAcrossCPUs(t *testing.T) {
	m := NewMachine(DefaultConfig())
	mpm := m.MPMs[0]
	for _, c := range mpm.CPUs {
		c.TLB.Insert(3, 9, pagetable.MakePTE(1, pagetable.PTEValid))
	}
	mpm.FlushTLBSpace(3)
	for _, c := range mpm.CPUs {
		if _, ok := c.TLB.Lookup(3, 9); ok {
			t.Fatal("entry survived space flush")
		}
	}
}

func TestCostConversions(t *testing.T) {
	if MicrosFromCycles(250) != 10 {
		t.Fatal("MicrosFromCycles")
	}
	if CyclesFromMicros(10) != 250 {
		t.Fatal("CyclesFromMicros")
	}
}
