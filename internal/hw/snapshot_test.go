package hw

import (
	"reflect"
	"testing"

	"vpp/internal/pagetable"
)

// TestTLBStateRoundTrip drives table-selected histories through a TLB,
// captures it, restores into a fresh TLB of the same geometry, and
// requires a deeply equal re-capture plus identical lookup behavior.
func TestTLBStateRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		fill func(tlb *TLB)
	}{
		{"empty", func(tlb *TLB) {}},
		{"partial", func(tlb *TLB) {
			tlb.Insert(1, 0x10, pagetable.MakePTE(0x100, pagetable.PTEValid))
			tlb.Insert(1, 0x11, pagetable.MakePTE(0x101, pagetable.PTEValid|pagetable.PTEWrite))
			tlb.Lookup(1, 0x10)
			tlb.Lookup(2, 0x99)
		}},
		{"wrapped_and_invalidated", func(tlb *TLB) {
			for i := uint32(0); i < 6; i++ { // wraps a 4-entry TLB
				tlb.Insert(2, i, pagetable.MakePTE(0x200+i, pagetable.PTEValid))
			}
			tlb.InvalidatePage(2, 4)
			tlb.Lookup(2, 5)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tlb := NewTLB(4)
			tc.fill(tlb)
			st := tlb.State()
			fresh := NewTLB(4)
			if err := fresh.Restore(st); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if st2 := fresh.State(); !reflect.DeepEqual(st, st2) {
				t.Fatalf("TLB state did not survive the round trip:\n first: %+v\nsecond: %+v", st, st2)
			}
			// Behavioral check: every slot answers identically.
			for _, e := range st.Entries {
				want, okWant := tlb.Lookup(e.ASID, e.VPN)
				got, okGot := fresh.Lookup(e.ASID, e.VPN)
				if want != got || okWant != okGot {
					t.Fatalf("lookup(%d, %#x) = %#x,%v vs %#x,%v", e.ASID, e.VPN, got, okGot, want, okWant)
				}
			}
		})
	}
	if err := NewTLB(8).Restore(NewTLB(4).State()); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	// A state the TLB cannot index is refused with an error: a cursor
	// that names no entry would panic at the next Insert, and two valid
	// entries for one page would leave one unreachable.
	src := NewTLB(4)
	src.Insert(1, 0x10, pagetable.MakePTE(0x100, pagetable.PTEValid))
	src.Insert(1, 0x11, pagetable.MakePTE(0x101, pagetable.PTEValid))
	bad := []struct {
		name string
		edit func(st *TLBState)
	}{
		{"negative cursor", func(st *TLBState) { st.Next = -1 }},
		{"cursor past the end", func(st *TLBState) { st.Next = len(st.Entries) }},
		{"duplicate page", func(st *TLBState) { st.Entries[2] = st.Entries[0] }},
		{"duplicate page, later pte", func(st *TLBState) {
			st.Entries[3] = st.Entries[1]
			st.Entries[3].PTE = pagetable.MakePTE(0x200, pagetable.PTEValid)
		}},
	}
	for _, b := range bad {
		st := src.State()
		b.edit(&st)
		fresh := NewTLB(4)
		if err := fresh.Restore(st); err == nil {
			t.Errorf("%s: restore accepted", b.name)
		}
		fresh.Insert(2, 0x20, pagetable.MakePTE(0x300, pagetable.PTEValid))
		if _, ok := fresh.Lookup(1, 0x10); ok {
			t.Errorf("%s: a rejected state left an entry behind", b.name)
		}
	}
	// An invalid entry may still carry a valid entry's page: only valid
	// entries are indexed.
	st := src.State()
	st.Entries[2] = st.Entries[0]
	st.Entries[2].Valid = false
	if err := NewTLB(4).Restore(st); err != nil {
		t.Errorf("invalid duplicate refused: %v", err)
	}
}

// TestL2StateRoundTrip does the same for the second-level cache's sparse
// tag capture.
func TestL2StateRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		fill func(c *L2Cache)
	}{
		{"empty", func(c *L2Cache) {}},
		{"hot_lines", func(c *L2Cache) {
			for pa := uint32(0); pa < 4*L2LineSize; pa += 4 {
				c.Access(pa)
			}
			c.Access(0) // a hit
		}},
		{"flushed", func(c *L2Cache) {
			c.Access(0)
			c.Access(0x1_0000) // conflicting tag
			c.Access(PageSize)
			c.FlushPage(PageSize)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := NewL2Cache(8 * L2LineSize)
			tc.fill(c)
			st := c.State()
			fresh := NewL2Cache(8 * L2LineSize)
			if err := fresh.Restore(st); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if st2 := fresh.State(); !reflect.DeepEqual(st, st2) {
				t.Fatalf("L2 state did not survive the round trip:\n first: %+v\nsecond: %+v", st, st2)
			}
		})
	}
	if err := NewL2Cache(4 * L2LineSize).Restore(NewL2Cache(8 * L2LineSize).State()); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	bad := L2State{NTags: 4, Tags: []L2Tag{{Line: 9, Tag: 1}}}
	if err := NewL2Cache(4 * L2LineSize).Restore(bad); err == nil {
		t.Fatal("out-of-range line accepted")
	}
}

// TestCPUStateRoundTrip pins the interrupt-state capture: a pending
// cause bit left by an idle-time timer must ride the snapshot.
func TestCPUStateRoundTrip(t *testing.T) {
	c := NewMachine(DefaultConfig()).MPMs[0].CPUs[0]
	c.Post(1)
	st := c.State()
	c2 := NewMachine(DefaultConfig()).MPMs[0].CPUs[0]
	c2.RestoreIntr(st)
	if c2.Pending() != 1 {
		t.Fatalf("restored interrupt state %+v", c2.State())
	}
}
