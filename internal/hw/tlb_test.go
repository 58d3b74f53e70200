package hw

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vpp/internal/pagetable"
)

func pte(pfn uint32, flags pagetable.PTE) pagetable.PTE {
	return pagetable.MakePTE(pfn, flags)
}

// TestTLBRoundRobinEvictionOrder checks that victims are chosen
// strictly in insertion-slot order and that the cursor wraps.
func TestTLBRoundRobinEvictionOrder(t *testing.T) {
	tlb := NewTLB(4)
	for i := uint32(0); i < 4; i++ {
		tlb.Insert(1, i, pte(100+i, pagetable.PTEValid))
	}
	// Fifth insert evicts the first-inserted entry (slot 0), sixth the
	// second, and so on.
	for i := uint32(4); i < 8; i++ {
		tlb.Insert(1, i, pte(100+i, pagetable.PTEValid))
		if _, ok := tlb.Lookup(1, i-4); ok {
			t.Fatalf("vpn %d should have been the round-robin victim", i-4)
		}
		for j := i - 3; j <= i; j++ {
			if got, ok := tlb.Lookup(1, j); !ok || got.PFN() != 100+j {
				t.Fatalf("vpn %d lost: ok=%v pfn=%d", j, ok, got.PFN())
			}
		}
	}
	// Cursor has wrapped: the next victim is vpn 4 again.
	tlb.Insert(1, 8, pte(108, pagetable.PTEValid))
	if _, ok := tlb.Lookup(1, 4); ok {
		t.Fatal("cursor did not wrap to slot 0")
	}
}

// TestTLBInsertOverwriteKeepsCursor checks that re-inserting a resident
// page updates the entry in place — a permission upgrade takes effect
// immediately — without advancing the replacement cursor.
func TestTLBInsertOverwriteKeepsCursor(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, 10, pte(5, pagetable.PTEValid))
	// Upgrade in place. If this wrongly consumed the replacement cursor,
	// the next insert would land on slot 0 and evict vpn 10.
	tlb.Insert(1, 10, pte(5, pagetable.PTEValid|pagetable.PTEWrite))
	tlb.Insert(1, 11, pte(6, pagetable.PTEValid))
	got, ok := tlb.Lookup(1, 10)
	if !ok {
		t.Fatal("in-place overwrite advanced the replacement cursor")
	}
	if !got.Writable() {
		t.Fatal("permission upgrade not visible")
	}
	if _, ok := tlb.Lookup(1, 11); !ok {
		t.Fatal("second entry missing")
	}
}

// TestTLBASIDIsolation checks that identical virtual page numbers in
// different address spaces coexist and that InvalidateSpace drops only
// its own space's entries.
func TestTLBASIDIsolation(t *testing.T) {
	tlb := NewTLB(DefaultTLBEntries)
	for i := uint32(0); i < 8; i++ {
		tlb.Insert(1, i, pte(100+i, pagetable.PTEValid))
		tlb.Insert(2, i, pte(200+i, pagetable.PTEValid))
	}
	tlb.InvalidateSpace(1)
	for i := uint32(0); i < 8; i++ {
		if _, ok := tlb.Lookup(1, i); ok {
			t.Fatalf("asid 1 vpn %d survived InvalidateSpace", i)
		}
		if got, ok := tlb.Lookup(2, i); !ok || got.PFN() != 200+i {
			t.Fatalf("asid 2 vpn %d damaged: ok=%v pfn=%d", i, ok, got.PFN())
		}
	}
}

// TestTLBInvalidatePageAndAll checks single-page and full flushes.
func TestTLBInvalidatePageAndAll(t *testing.T) {
	tlb := NewTLB(DefaultTLBEntries)
	tlb.Insert(1, 10, pte(5, pagetable.PTEValid))
	tlb.Insert(1, 11, pte(6, pagetable.PTEValid))
	tlb.InvalidatePage(1, 10)
	if _, ok := tlb.Lookup(1, 10); ok {
		t.Fatal("invalidated page still present")
	}
	if _, ok := tlb.Lookup(1, 11); !ok {
		t.Fatal("unrelated page dropped")
	}
	tlb.InvalidatePage(1, 99) // absent: must be a no-op
	tlb.InvalidateAll()
	if _, ok := tlb.Lookup(1, 11); ok {
		t.Fatal("entry survived InvalidateAll")
	}
}

// TestTLBCounterExactness replays a scripted reference sequence and
// checks the hit/miss counters match it access for access.
func TestTLBCounterExactness(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Lookup(1, 0) // miss
	tlb.Insert(1, 0, pte(9, pagetable.PTEValid))
	tlb.Lookup(1, 0) // hit
	tlb.Lookup(1, 0) // hit
	tlb.Lookup(2, 0) // miss: other asid
	tlb.InvalidatePage(1, 0)
	tlb.Lookup(1, 0) // miss
	if tlb.Hits != 2 || tlb.Misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", tlb.Hits, tlb.Misses)
	}
}

// refTLB is the original linear-scan implementation, kept as an
// executable specification: the indexed TLB must be observably
// identical to it under any operation sequence.
type refTLB struct {
	entries   []tlbEntry
	next      int
	hits      uint64
	misses    uint64
	evictions uint64 // inserts that replaced a valid entry
}

func (t *refTLB) Lookup(asid uint16, vpn uint32) (pagetable.PTE, bool) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.asid == asid && e.vpn == vpn {
			t.hits++
			return e.pte, true
		}
	}
	t.misses++
	return 0, false
}

func (t *refTLB) Insert(asid uint16, vpn uint32, pte pagetable.PTE) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.asid == asid && e.vpn == vpn {
			e.pte = pte
			return
		}
	}
	if t.entries[t.next].valid {
		t.evictions++
	}
	t.entries[t.next] = tlbEntry{asid: asid, valid: true, vpn: vpn, pte: pte}
	t.next = (t.next + 1) % len(t.entries)
}

func (t *refTLB) InvalidatePage(asid uint16, vpn uint32) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.asid == asid && e.vpn == vpn {
			e.valid = false
		}
	}
}

func (t *refTLB) InvalidateSpace(asid uint16) {
	for i := range t.entries {
		if t.entries[i].asid == asid {
			t.entries[i].valid = false
		}
	}
}

func (t *refTLB) InvalidateAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// checkTLBIndex verifies the open-addressed index: it holds exactly the
// valid entries, each reachable from its home slot. Checked after every
// operation, a misplaced slot fails at once, before stale slots could
// fill the table.
func checkTLBIndex(tlb *TLB) error {
	valid := 0
	for i, e := range tlb.entries {
		if !e.valid {
			continue
		}
		valid++
		if s, ok := tlb.find(e.asid, e.vpn); !ok || tlb.index[s] != int32(i)+1 {
			return fmt.Errorf("entry %d (asid %d, vpn %#x) is not reachable through the index", i, e.asid, e.vpn)
		}
	}
	used := 0
	for _, p := range tlb.index {
		if p != 0 {
			used++
		}
	}
	if used != valid {
		return fmt.Errorf("%d index slots in use for %d valid entries", used, valid)
	}
	return nil
}

// TestTLBMatchesLinearReference drives the indexed TLB and the linear
// reference with the same pseudo-random operation stream and demands
// identical lookup results, statistics, entry arrays and replacement
// behavior, with the index checked after every operation. It runs at
// one entry, at eight and at the paper's 64, since the index's length
// derives from the entry count, and with two mixes: flush-heavy, where
// a fifth of the operations flush a space or the whole TLB, and fill,
// where flushes are rare enough for every size to fill and evict valid
// entries. At random points the TLB is replaced by a fresh one restored
// from its State, which must go on in step with the reference.
func TestTLBMatchesLinearReference(t *testing.T) {
	for _, size := range []int{1, 8, DefaultTLBEntries} {
		mixes := []struct {
			name    string
			flushes int // one operation in flushes is a flush
		}{{"flush-heavy", 5}, {"fill", 8 * size}}
		for _, mix := range mixes {
			t.Run(fmt.Sprintf("%d/%s", size, mix.name), func(t *testing.T) {
				tlb := NewTLB(size)
				ref := &refTLB{entries: make([]tlbEntry, size)}
				rng := rand.New(rand.NewSource(int64(size)))
				restores := 0
				for op := 0; op < 20000; op++ {
					asid := uint16(rng.Intn(3) + 1)
					vpn := uint32(rng.Intn(2 * size))
					switch {
					case rng.Intn(mix.flushes) == 0:
						if rng.Intn(2) == 0 {
							tlb.InvalidateSpace(asid)
							ref.InvalidateSpace(asid)
						} else {
							tlb.InvalidateAll()
							ref.InvalidateAll()
						}
					case rng.Intn(200) == 0:
						fresh := NewTLB(size)
						if err := fresh.Restore(tlb.State()); err != nil {
							t.Fatalf("op %d: restore: %v", op, err)
						}
						tlb = fresh
						restores++
					default:
						switch rng.Intn(8) {
						case 0, 1, 2, 3: // lookup-heavy mix
							gp, gok := tlb.Lookup(asid, vpn)
							wp, wok := ref.Lookup(asid, vpn)
							if gp != wp || gok != wok {
								t.Fatalf("op %d: Lookup(%d,%d) = (%#x,%v), reference (%#x,%v)",
									op, asid, vpn, gp, gok, wp, wok)
							}
						case 4, 5, 6:
							p := pte(uint32(rng.Intn(1<<12)), pagetable.PTEValid|pagetable.PTE(rng.Intn(2))<<1)
							tlb.Insert(asid, vpn, p)
							ref.Insert(asid, vpn, p)
						default:
							tlb.InvalidatePage(asid, vpn)
							ref.InvalidatePage(asid, vpn)
						}
					}
					if tlb.Hits != ref.hits || tlb.Misses != ref.misses {
						t.Fatalf("op %d: stats (%d,%d), reference (%d,%d)", op, tlb.Hits, tlb.Misses, ref.hits, ref.misses)
					}
					if tlb.next != ref.next {
						t.Fatalf("op %d: replacement cursor %d, reference %d", op, tlb.next, ref.next)
					}
					if !slices.Equal(tlb.entries, ref.entries) {
						t.Fatalf("op %d: entries\n%+v\nreference\n%+v", op, tlb.entries, ref.entries)
					}
					if err := checkTLBIndex(tlb); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
				if restores == 0 || ref.hits == 0 || ref.misses == 0 || mix.name == "fill" && ref.evictions < 1000 {
					t.Fatalf("stream exercised too little: %d restores, %d hits, %d misses, %d evictions",
						restores, ref.hits, ref.misses, ref.evictions)
				}
			})
		}
	}
}

// TestTranslateLatestHitCoherence checks that Translate's check of the
// TLB's latest hit never serves a stale translation: after a TLB
// shootdown or a space switch the next access must find the new
// mapping.
func TestTranslateLatestHitCoherence(t *testing.T) {
	m := NewMachine(DefaultConfig())
	mpm := m.MPMs[0]
	tblA, _ := pagetable.New(nil)
	tblA.Insert(0x100_0000, pte(512, pagetable.PTEValid|pagetable.PTEWrite))
	tblB, _ := pagetable.New(nil)
	tblB.Insert(0x100_0000, pte(700, pagetable.PTEValid))
	spA := &Space{Table: tblA, ASID: 1}
	spB := &Space{Table: tblB, ASID: 2}

	e := mpm.NewExec("mc", func(e *Exec) {
		e.Space = spA
		// Fill, then hit twice: the second and third translations are
		// answered by the latest-hit check but still count as TLB hits.
		e.Translate(0x100_0000, false)
		h0 := e.CPU.TLB.Hits
		pa, _ := e.Translate(0x100_0000, false)
		if pa != 512<<PageShift {
			t.Errorf("hit pa = %#x", pa)
		}
		e.Translate(0x100_0000, false)
		if h1 := e.CPU.TLB.Hits; h1 != h0+2 {
			t.Errorf("latest-hit check's hits not counted: %d -> %d", h0, h1)
		}

		// Remap the page and shoot down the TLB entry: the next access
		// must re-walk and see the new frame, not the cached one.
		tblA.Remove(0x100_0000)
		tblA.Insert(0x100_0000, pte(640, pagetable.PTEValid|pagetable.PTEWrite))
		mpm.FlushTLBPage(spA.ASID, 0x100_0000>>PageShift)
		if pa, _ := e.Translate(0x100_0000, false); pa != 640<<PageShift {
			t.Errorf("stale translation after shootdown: pa = %#x", pa)
		}

		// A space switch changes the tag the latest hit must match even
		// though the virtual address is identical.
		e.SetSpace(spB)
		if pa, _ := e.Translate(0x100_0000, false); pa != 700<<PageShift {
			t.Errorf("stale translation after space switch: pa = %#x", pa)
		}
		e.SetSpace(spA)
		if pa, _ := e.Translate(0x100_0000, false); pa != 640<<PageShift {
			t.Errorf("stale translation after switch back: pa = %#x", pa)
		}

		// First write through a clean entry takes the modified-bit
		// upgrade path, not the latest-hit check, and marks the page
		// dirty.
		if pa, wpte := e.Translate(0x100_0000, true); pa != 640<<PageShift || wpte&pagetable.PTEModified == 0 {
			t.Errorf("write upgrade: pa=%#x pte=%#x", pa, wpte)
		}
	})
	mpm.CPUs[0].Dispatch(e)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
}

// TestTranslateMatchesLookup drives Translate on a two-CPU MPM through
// a seeded stream of repeated pages, new pages that evict, writes
// through clean entries, page and space shootdowns, whole-TLB flushes,
// restores of earlier TLB states, switches between two spaces that map
// the same addresses, and moves of the context between the CPUs. In
// lockstep, a reference translate runs the same steps on a clone of
// each TLB and of each page table. After every step the translation,
// its PTE and each TLB's counts and state must match the clone's: the
// latest-hit check answers exactly what Lookup answers.
func TestTranslateMatchesLookup(t *testing.T) {
	const (
		entries = 8
		pages   = 24 // per space, three times the TLB
		base    = 0x100_0000
	)
	cfg := DefaultConfig()
	cfg.CPUsPerMPM = 2
	m := NewMachine(cfg)
	mpm := m.MPMs[0]
	for _, c := range mpm.CPUs {
		c.TLB = NewTLB(entries)
	}
	// pteFor maps page i of space s clean; one page in three is
	// read-only.
	pteFor := func(s, i uint32) pagetable.PTE {
		flags := pagetable.PTEValid | pagetable.PTEWrite
		if i%3 == 0 {
			flags = pagetable.PTEValid
		}
		return pte(1000*(s+1)+i, flags)
	}
	spaces := func() []*Space {
		sps := make([]*Space, 2)
		for s := range sps {
			tbl, _ := pagetable.New(nil)
			for i := uint32(0); i < pages; i++ {
				tbl.Insert(base+i<<PageShift, pteFor(uint32(s), i))
			}
			sps[s] = &Space{Table: tbl, ASID: uint16(s + 1)}
		}
		return sps
	}
	sps, refSps := spaces(), spaces()
	// refTranslate is Translate without the latest-hit check and
	// without charges: only Lookup, Insert and the page table. Every
	// access the stream makes translates.
	upgrades := 0
	refTranslate := func(tlb *TLB, sp *Space, va uint32, write bool) (uint32, pagetable.PTE, error) {
		vpn := va >> PageShift
		for {
			pte, hit := tlb.Lookup(sp.ASID, vpn)
			if hit {
				if !pte.Valid() || write && !pte.Writable() {
					return 0, 0, fmt.Errorf("reference: TLB entry %#x for va %#x refuses the access", pte, va)
				}
				if write && pte&pagetable.PTEModified == 0 {
					upgrades++
					sp.Table.SetRM(va, true)
					pte |= pagetable.PTEModified
					tlb.Insert(sp.ASID, vpn, pte)
				}
				return pte.PFN()<<PageShift | va&(PageSize-1), pte, nil
			}
			wpte, ok := sp.Table.Lookup(va)
			if !ok || write && !wpte.Writable() {
				return 0, 0, fmt.Errorf("reference: va %#x does not translate", va)
			}
			sp.Table.SetRM(va, write)
			if write {
				wpte |= pagetable.PTEModified
			}
			tlb.Insert(sp.ASID, vpn, wpte|pagetable.PTEReferenced)
		}
	}
	refs := make([]*TLB, len(mpm.CPUs))
	for i, c := range mpm.CPUs {
		refs[i] = NewTLB(entries)
		if err := refs[i].Restore(c.TLB.State()); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(31))
	steps := map[string]int{}
	// The body runs on the engine's coroutine, so it records the first
	// mismatch and returns; the test fails after Run.
	var failure error
	e := mpm.NewExec("lockstep", func(e *Exec) {
		cur := 0 // index of e.Space in sps and refSps
		e.SetSpace(sps[cur])
		va := uint32(base)
		var saved []TLBState
		for op := 0; op < 6000; op++ {
			var step string
			switch r := rng.Intn(100); {
			case r < 40:
				step = "repeat"
			case r < 70:
				step = "new page"
				va = base + uint32(rng.Intn(pages))<<PageShift + uint32(rng.Intn(PageSize/4))*4
			case r < 78:
				step = "clean page"
				i := uint32(rng.Intn(pages))
				sps[cur].Table.Insert(base+i<<PageShift, pteFor(uint32(cur), i))
				refSps[cur].Table.Insert(base+i<<PageShift, pteFor(uint32(cur), i))
				mpm.FlushTLBPage(sps[cur].ASID, base>>PageShift+i)
				for _, ref := range refs {
					ref.InvalidatePage(sps[cur].ASID, base>>PageShift+i)
				}
			case r < 81:
				step = "flush space"
				asid := uint16(rng.Intn(2) + 1)
				mpm.FlushTLBSpace(asid)
				for _, ref := range refs {
					ref.InvalidateSpace(asid)
				}
			case r < 83:
				step = "flush all"
				e.CPU.TLB.InvalidateAll()
				refs[e.CPU.Index].InvalidateAll()
			case r < 88:
				if len(saved) == 0 || rng.Intn(2) == 0 {
					step = "save"
					saved = append(saved, e.CPU.TLB.State())
					break
				}
				step = "restore"
				st := saved[rng.Intn(len(saved))]
				if err := e.CPU.TLB.Restore(st); err != nil {
					failure = fmt.Errorf("op %d: restore: %v", op, err)
					return
				}
				if err := refs[e.CPU.Index].Restore(st); err != nil {
					failure = fmt.Errorf("op %d: reference restore: %v", op, err)
					return
				}
			case r < 94:
				step = "switch space"
				cur = 1 - cur
				e.SetSpace(sps[cur])
			default:
				step = "move"
				from, to := e.CPU, mpm.CPUs[1-e.CPU.Index]
				m.Engine.ScheduleAt(e.Now(), func() {
					to.Clock.AdvanceTo(from.Clock.Now())
					to.Dispatch(e)
				})
				e.Park()
			}
			steps[step]++
			write := (va>>PageShift-base>>PageShift)%3 != 0 && rng.Intn(3) == 0
			pa, got := e.Translate(va, write)
			wantPA, want, err := refTranslate(refs[e.CPU.Index], refSps[cur], va, write)
			if err != nil {
				failure = fmt.Errorf("op %d (%s): %v", op, step, err)
				return
			}
			if pa != wantPA || got != want {
				failure = fmt.Errorf("op %d (%s): Translate(%#x, %v) = (%#x, %#x), reference (%#x, %#x)",
					op, step, va, write, pa, got, wantPA, want)
				return
			}
			for i, c := range mpm.CPUs {
				if c.TLB.Hits != refs[i].Hits || c.TLB.Misses != refs[i].Misses {
					failure = fmt.Errorf("op %d (%s): cpu %d counts %d hits %d misses, reference %d %d",
						op, step, i, c.TLB.Hits, c.TLB.Misses, refs[i].Hits, refs[i].Misses)
					return
				}
				if got, want := c.TLB.State(), refs[i].State(); !reflect.DeepEqual(got, want) {
					failure = fmt.Errorf("op %d (%s): cpu %d TLB state\n%+v\nreference\n%+v", op, step, i, got, want)
					return
				}
			}
		}
	})
	mpm.CPUs[0].Dispatch(e)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if failure != nil {
		t.Fatal(failure)
	}
	for _, step := range []string{"repeat", "new page", "clean page", "flush space", "flush all", "restore", "switch space", "move"} {
		if steps[step] < 20 {
			t.Errorf("stream took step %q %d times", step, steps[step])
		}
	}
	if upgrades < 20 {
		t.Errorf("stream wrote through a clean entry %d times", upgrades)
	}
}

// moveSup is a supervisor whose interrupts move the running context to
// the MPM's other CPU. Each interrupt takes the next action: "move"
// parks the context and dispatches it on the other CPU, "repost"
// latches the interrupt again so the next charge delivers it.
type moveSup struct {
	fakeSup
	actions []string
}

func (s *moveSup) Interrupt(e *Exec, pending uint32) {
	if len(s.actions) == 0 {
		return
	}
	act := s.actions[0]
	s.actions = s.actions[1:]
	from := e.CPU
	if act == "repost" {
		from.Post(pending)
		return
	}
	to := e.MPM.CPUs[1-from.Index]
	to.Clock.AdvanceTo(e.Now())
	e.MPM.Engine.ScheduleAt(e.Now(), func() { to.Dispatch(e) })
	e.Park()
}

// TestTranslateFollowsCPUMove: a translation whose charge lets an
// interrupt move the context to another CPU looks up, fills and counts
// on the TLB of the CPU it runs on after the move, whether the move
// comes at the translation's first charge or during its table walk.
func TestTranslateFollowsCPUMove(t *testing.T) {
	const (
		vaHit  = 0x100_0000 // cached on the destination CPU only
		vaFill = 0x100_1000 // cached nowhere
		vaWalk = 0x100_2000 // cached nowhere; the move comes mid-walk
	)
	cfg := DefaultConfig()
	cfg.CPUsPerMPM = 2
	m := NewMachine(cfg)
	mpm := m.MPMs[0]
	tbl, _ := pagetable.New(nil)
	for i, va := range []uint32{vaHit, vaFill, vaWalk} {
		tbl.Insert(va, pte(uint32(600+i), pagetable.PTEValid|pagetable.PTEWrite))
	}
	sp := &Space{Table: tbl, ASID: 1}
	sup := &moveSup{}
	mpm.Sup = sup
	cpu0, cpu1 := mpm.CPUs[0], mpm.CPUs[1]
	cpu1.TLB.Insert(sp.ASID, vaHit>>PageShift, pte(600, pagetable.PTEValid|pagetable.PTEWrite|pagetable.PTEReferenced))
	cached := func(c *CPU, va uint32) bool {
		_, ok := c.TLB.find(sp.ASID, va>>PageShift)
		return ok
	}
	type counts struct{ hits0, misses0, hits1, misses1 uint64 }
	now := func() counts {
		return counts{cpu0.TLB.Hits, cpu0.TLB.Misses, cpu1.TLB.Hits, cpu1.TLB.Misses}
	}
	e := mpm.NewExec("mover", func(e *Exec) {
		e.Space = sp
		check := func(step string, va uint32, on *CPU, before, want counts) {
			t.Helper()
			pa, _ := e.Translate(va, false)
			if wpte, _ := tbl.Lookup(va); pa != wpte.PFN()<<PageShift {
				t.Errorf("%s: pa %#x, want %#x", step, pa, wpte.PFN()<<PageShift)
			}
			if e.CPU != on {
				t.Errorf("%s: context on cpu %d, want cpu %d", step, e.CPU.Index, on.Index)
				return
			}
			got := now()
			got = counts{got.hits0 - before.hits0, got.misses0 - before.misses0, got.hits1 - before.hits1, got.misses1 - before.misses1}
			if got != want {
				t.Errorf("%s: TLB counts (hits, misses) cpu0 %d,%d cpu1 %d,%d; want cpu0 %d,%d cpu1 %d,%d",
					step, got.hits0, got.misses0, got.hits1, got.misses1, want.hits0, want.misses0, want.hits1, want.misses1)
			}
			if off := mpm.CPUs[1-on.Index]; va != vaHit && cached(off, va) {
				t.Errorf("%s: va %#x filled into cpu %d, which the context left", step, va, off.Index)
			}
			if !cached(on, va) {
				t.Errorf("%s: va %#x not cached on cpu %d", step, va, on.Index)
			}
		}
		// Moved at the first charge from cpu0 to cpu1, which has the
		// page: one hit there, nothing on cpu0.
		sup.actions = []string{"move"}
		cpu0.Post(1)
		check("lookup", vaHit, cpu1, now(), counts{hits1: 1})
		if cached(cpu0, vaHit) {
			t.Errorf("lookup: va %#x filled into cpu 0", uint32(vaHit))
		}
		// Moved at the first charge from cpu1 to cpu0: the miss, the
		// fill and the hit that follows it are all cpu0's.
		sup.actions = []string{"move"}
		cpu1.Post(1)
		check("fill", vaFill, cpu0, now(), counts{hits0: 1, misses0: 1})
		// Moved from cpu0 to cpu1 at the walk's first charge: the miss
		// was cpu0's, the fill and the hit are cpu1's.
		sup.actions = []string{"repost", "move"}
		cpu0.Post(1)
		check("walk", vaWalk, cpu1, now(), counts{misses0: 1, hits1: 1})
	})
	cpu0.Dispatch(e)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if len(sup.actions) != 0 {
		t.Fatalf("interrupt actions left undelivered: %v", sup.actions)
	}
}
