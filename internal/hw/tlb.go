package hw

import "vpp/internal/pagetable"

// TLB models a per-CPU 64-entry fully associative address translation
// cache (the 68040 ATC), tagged by address-space identifier so a space
// switch needs no flush. Replacement is round-robin, which the real part
// approximated with a pseudo-random pointer.
//
// The host-side implementation finds entries through an open-addressed
// index over the same entry array the hardware would search
// associatively: a power-of-two table of at least four slots per entry,
// probed linearly from a hash of (asid, vpn), each slot holding a valid
// entry's position+1 (0 is empty), with backward-shift deletion so a
// probe run never holds a hole. Replacement order, eviction victims and
// hit/miss statistics are exactly those of the original linear scan;
// only the host cost of finding an entry changes.
//
// last is the entry of the most recent Lookup hit, which Exec.Translate
// checks before probing the index: a repeat of the page is the common
// case. No two valid entries share an (asid, vpn) pair (Insert
// overwrites in place and Restore refuses duplicates), so a valid entry
// with the wanted tag is exactly what Lookup would return, and no
// mutation has to reset last.
type TLB struct {
	entries []tlbEntry
	index   []int32 // open-addressed: valid entry position+1, 0 = empty
	shift   uint    // 64 - log2(len(index)): the hash keeps the top bits
	next    int
	last    *tlbEntry // never nil: it points into entries

	// Hits and Misses count lookups since the TLB was built (or
	// restored from a snapshot); nothing resets them.
	Hits, Misses uint64
}

type tlbEntry struct {
	asid  uint16
	valid bool
	vpn   uint32
	pte   pagetable.PTE
}

// DefaultTLBEntries matches the 68040 ATC.
const DefaultTLBEntries = 64

// NewTLB returns a TLB with n entries.
func NewTLB(n int) *TLB {
	if n <= 0 {
		panic("hw: bad TLB size")
	}
	bits := uint(2)
	for 1<<bits < 4*n {
		bits++
	}
	t := &TLB{
		entries: make([]tlbEntry, n),
		index:   make([]int32, 1<<bits),
		shift:   64 - bits,
	}
	t.last = &t.entries[0]
	return t
}

// home is (asid, vpn)'s first index slot: a Fibonacci hash of the
// packed pair.
func (t *TLB) home(asid uint16, vpn uint32) int {
	return int((uint64(asid)<<32 | uint64(vpn)) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the index slot of the valid entry for (asid, vpn), or
// the empty slot that ends its probe run and ok false.
func (t *TLB) find(asid uint16, vpn uint32) (slot int, ok bool) {
	mask := len(t.index) - 1
	for s := t.home(asid, vpn); ; s = (s + 1) & mask {
		p := t.index[s]
		if p == 0 {
			return s, false
		}
		if e := &t.entries[p-1]; e.vpn == vpn && e.asid == asid {
			return s, true
		}
	}
}

// unindex empties index slot s and shifts later members of its probe
// run back, so that every entry stays reachable from its home slot.
func (t *TLB) unindex(s int) {
	mask := len(t.index) - 1
	for j := (s + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		e := &t.entries[t.index[j]-1]
		// The entry at j may fill the hole at s unless its home lies
		// cyclically in (s, j].
		if (j-t.home(e.asid, e.vpn))&mask >= (j-s)&mask {
			t.index[s] = t.index[j]
			s = j
		}
	}
	t.index[s] = 0
}

// Lookup searches for (asid, vpn); ok reports a hit.
func (t *TLB) Lookup(asid uint16, vpn uint32) (pagetable.PTE, bool) {
	if s, ok := t.find(asid, vpn); ok {
		t.Hits++
		t.last = &t.entries[t.index[s]-1]
		return t.last.pte, true
	}
	t.Misses++
	return 0, false
}

// Insert fills an entry for (asid, vpn), evicting round-robin.
func (t *TLB) Insert(asid uint16, vpn uint32, pte pagetable.PTE) {
	s, ok := t.find(asid, vpn)
	// Overwrite an existing entry for the same page if present, so a
	// permission upgrade takes effect immediately.
	if ok {
		t.entries[t.index[s]-1].pte = pte
		return
	}
	victim := &t.entries[t.next]
	if victim.valid {
		vs, _ := t.find(victim.asid, victim.vpn)
		t.unindex(vs)
		// The shift may have opened a slot earlier on the new key's
		// probe run than s.
		s, _ = t.find(asid, vpn)
	}
	*victim = tlbEntry{asid: asid, valid: true, vpn: vpn, pte: pte}
	t.index[s] = int32(t.next) + 1
	t.next = (t.next + 1) % len(t.entries)
}

// InvalidatePage drops the entry for (asid, vpn) if present.
func (t *TLB) InvalidatePage(asid uint16, vpn uint32) {
	if s, ok := t.find(asid, vpn); ok {
		t.entries[t.index[s]-1].valid = false
		t.unindex(s)
	}
}

// InvalidateSpace drops all entries of one address space.
func (t *TLB) InvalidateSpace(asid uint16) {
	for i := range t.entries {
		if e := &t.entries[i]; e.asid == asid && e.valid {
			s, _ := t.find(asid, e.vpn)
			t.unindex(s)
			e.valid = false
		}
	}
}

// InvalidateAll flushes the TLB.
func (t *TLB) InvalidateAll() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
	clear(t.index)
}
