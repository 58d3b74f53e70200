package ck

import (
	"fmt"
	"slices"
)

// The physical memory map stores 16-byte dependency records, one per
// loaded page mapping plus one per signal or copy-on-write specification
// (paper §4.1). A record is (key, dependent, context):
//
//   - physical-to-virtual: key = physical frame, dependent = virtual
//     address, context = owning address-space slot. This is the dominant
//     case and the unit of mapping replacement.
//   - signal: key = handle of the physical-to-virtual record, dependent =
//     signal thread slot, context = the signal marker.
//   - copy-on-write: key = handle of the record, dependent = source
//     frame.
//
// Signal delivery looks up the physical-to-virtual records for the
// signalled frame, then the signal records keyed by each record's handle
// — the two-stage lookup whose cost the per-processor reverse-TLB
// (rtlb.go) avoids in the common case.

// depKind tags the record's role, stored in the context word.
type depKind uint32

const (
	depFree depKind = iota
	depPhysVirt
	depSignal
	depCopyOnWrite
)

// depRecord is the 16-byte descriptor. The Go struct is exactly four
// 32-bit words, matching the paper's MemMapEntry size (Table 1).
type depRecord struct {
	key  uint32
	dep  uint32
	ctx  uint32 // kind (4 bits) | locked (1 bit) | owner slot (16 bits << 8)
	next int32  // hash chain, -1 ends
}

// depRecordBytes is the accounted size of one record.
const depRecordBytes = 16

const (
	ctxKindMask   = 0xf
	ctxLockedBit  = 1 << 4
	ctxOwnerShift = 8
)

func makeCtx(kind depKind, owner int32) uint32 {
	return uint32(kind) | uint32(owner)<<ctxOwnerShift
}

func (r *depRecord) kind() depKind { return depKind(r.ctx & ctxKindMask) }
func (r *depRecord) locked() bool  { return r.ctx&ctxLockedBit != 0 }
func (r *depRecord) owner() int32  { return int32(r.ctx >> ctxOwnerShift) }

func (r *depRecord) setLocked(v bool) {
	if v {
		r.ctx |= ctxLockedBit
	} else {
		r.ctx &^= ctxLockedBit
	}
}

// pmap is the hash table of dependency records. Its capacity and its
// bucket array are the paper's fixed pool (Table 1), accounted against
// local RAM in full at boot, but the host stores only what a run has
// used: records live in chunks allocated the first time a slot in them
// is handed out, bucket heads in chunks allocated the first time a
// chain in them gains a record, and the part of the free stack no run
// has touched is one number.
type pmap struct {
	n        int32       // capacity in records
	chunks   []*recChunk // nil: no slot in the chunk handed out yet, all free
	nbuckets int32
	heads    []*headChunk // nil: every chain in the chunk empty
	live     int
	hand     int32 // clock hand for replacement scans
	free     freeStack

	// Reloads counts insertions into slots that have held a record
	// before — the mapping cache's analog of the objCache reload counter
	// (observability only, not accounted RAM). The record is the mark:
	// removal leaves next == -1, and a never-used slot is all zero.
	Reloads uint64
}

// A record chunk is one 4 KB page of records.
const (
	recChunkShift = 8
	recChunkLen   = 1 << recChunkShift
)

type recChunk [recChunkLen]depRecord

// A bucket-head chunk is 1 KB of chain heads. Each is stored plus one,
// so that a new chunk's zeros are empty chains.
const (
	headChunkShift = 8
	headChunkLen   = 1 << headChunkShift
)

type headChunk [headChunkLen]int32

func newPMap(capacity, buckets int) *pmap {
	return &pmap{
		n:        int32(capacity),
		chunks:   make([]*recChunk, (capacity+recChunkLen-1)/recChunkLen),
		nbuckets: int32(buckets),
		heads:    make([]*headChunk, (buckets+headChunkLen-1)/headChunkLen),
		free:     freeStack{n: int32(capacity)},
	}
}

func (p *pmap) bucket(key uint32) int32 {
	return int32(key * 2654435761 % uint32(p.nbuckets))
}

// head returns the first record on bucket b's chain, or -1.
func (p *pmap) head(b int32) int32 {
	if ch := p.heads[b>>headChunkShift]; ch != nil {
		return ch[b&(headChunkLen-1)] - 1
	}
	return -1
}

// setHead makes idx the first record on bucket b's chain (-1 empties
// it), allocating the bucket's chunk on its first use.
func (p *pmap) setHead(b, idx int32) {
	ch := p.heads[b>>headChunkShift]
	if ch == nil {
		ch = new(headChunk)
		p.heads[b>>headChunkShift] = ch
	}
	ch[b&(headChunkLen-1)] = idx + 1
}

// insert allocates a record; full=false means the pool is exhausted and
// the caller must reclaim a victim first. probes counts hash work for
// cycle charging.
func (p *pmap) insert(kind depKind, key, dep uint32, owner int32) (idx int32, ok bool) {
	idx, ok = p.takeFree()
	if !ok {
		return -1, false
	}
	p.insertAt(idx, kind, key, dep, owner)
	return idx, true
}

// takeFree pops a free record slot, reserving it for the caller.
// Reservation and eviction hand-off must not be separated by a charge
// point, or another processor's load can steal the slot (the
// non-blocking-synchronization discipline of paper §4.2).
func (p *pmap) takeFree() (int32, bool) {
	idx, ok := p.free.take()
	if ok {
		p.allocChunk(idx)
	}
	return idx, ok
}

// allocChunk allocates the all-free chunk holding slot idx if it has
// none yet.
func (p *pmap) allocChunk(idx int32) {
	if p.chunks[idx>>recChunkShift] == nil {
		p.chunks[idx>>recChunkShift] = new(recChunk)
	}
}

// insertAt fills a reserved slot with a live record.
func (p *pmap) insertAt(idx int32, kind depKind, key, dep uint32, owner int32) {
	r := p.rec(idx)
	if r.next == -1 {
		p.Reloads++
	}
	b := p.bucket(key)
	*r = depRecord{key: key, dep: dep, ctx: makeCtx(kind, owner), next: p.head(b)}
	p.setHead(b, idx)
	p.live++
}

// remove frees record idx, unlinking it from its chain. probes reports
// chain positions walked (for cycle charging).
func (p *pmap) remove(idx int32) (probes int) {
	probes = p.removeKeep(idx)
	p.free.release(idx)
	return probes
}

// removeKeep unlinks record idx but keeps the slot reserved for the
// caller instead of freeing it (the eviction hand-off).
func (p *pmap) removeKeep(idx int32) (probes int) {
	r := p.rec(idx)
	if r.kind() == depFree {
		panic("ck: pmap remove of free record")
	}
	b := p.bucket(r.key)
	cur := p.head(b)
	if cur == idx {
		p.setHead(b, r.next)
		probes = 1
	} else {
		probes = 1
		for cur != -1 {
			probes++
			c := p.rec(cur)
			if c.next == idx {
				c.next = r.next
				break
			}
			cur = c.next
		}
		if cur == -1 {
			panic("ck: pmap record not on its chain")
		}
	}
	*r = depRecord{next: -1}
	p.live--
	return probes
}

// findEach calls fn for every live record with the given kind and key, in
// reverse insertion order (chain order). fn may remove the current
// record. It returns the number of chain probes for cycle charging.
func (p *pmap) findEach(kind depKind, key uint32, fn func(idx int32, r *depRecord) bool) (probes int) {
	cur := p.head(p.bucket(key))
	for cur != -1 {
		probes++
		r := p.rec(cur)
		next := r.next
		if r.kind() == kind && r.key == key {
			if !fn(cur, r) {
				return probes
			}
		}
		cur = next
	}
	return probes
}

// rec returns the record at idx, a slot that has been handed out.
func (p *pmap) rec(idx int32) *depRecord {
	return &p.chunks[idx>>recChunkShift][idx&(recChunkLen-1)]
}

// peek returns a copy of the record at idx. A slot out of range or never
// handed out reads as free, so CheckInvariants and restore can follow
// an index that a defect or a bad capture has corrupted, and report it.
func (p *pmap) peek(idx int32) depRecord {
	if idx < 0 || idx >= p.n {
		return depRecord{}
	}
	if ch := p.chunks[idx>>recChunkShift]; ch != nil {
		return ch[idx&(recChunkLen-1)]
	}
	return depRecord{}
}

// victim advances the clock hand to the next physical-to-virtual record
// accepted by reclaimable, returning its index, or -1 if none is
// reclaimable. scanned reports slots visited for cycle charging; every
// slot of the pool counts, and an unallocated chunk's free slots are
// passed in one step.
func (p *pmap) victim(reclaimable func(idx int32, r *depRecord) bool) (idx int32, scanned int) {
	n := p.n
	for scanned < int(n) {
		i := (p.hand + 1) % n
		// Visit slots [i, end): up to the end of i's chunk, of the pool
		// or of the scan.
		end := min((i|(recChunkLen-1))+1, n, i+n-int32(scanned))
		if ch := p.chunks[i>>recChunkShift]; ch != nil {
			for ; i < end; i++ {
				scanned++
				if r := &ch[i&(recChunkLen-1)]; r.kind() == depPhysVirt && reclaimable(i, r) {
					p.hand = i
					return i, scanned
				}
			}
		} else {
			scanned += int(end - i)
		}
		p.hand = end - 1
	}
	return -1, scanned
}

// Live reports the number of allocated records.
func (p *pmap) Live() int { return p.live }

// Free reports the number of free record slots.
func (p *pmap) Free() int { return p.free.len() }

// Capacity reports the record pool size.
func (p *pmap) Capacity() int { return int(p.n) }

// state captures the map: its live records chain by chain, in bucket
// order, each chain from its last record to its head, the slots of the
// removed records, each its slot's reload mark, in slot order, the free
// stack and the clock hand.
func (p *pmap) state() PMapState {
	st := PMapState{Free: p.free.state(), Hand: p.hand, Reloads: p.Reloads}
	for _, ch := range p.heads {
		if ch == nil {
			continue
		}
		for _, h := range ch {
			from := len(st.Recs)
			for cur := h - 1; cur != -1; {
				r := p.rec(cur)
				st.Recs = append(st.Recs, DepRec{Slot: cur, Key: r.key, Dep: r.dep, Ctx: r.ctx})
				cur = r.next
			}
			slices.Reverse(st.Recs[from:])
		}
	}
	for c, ch := range p.chunks {
		if ch == nil {
			continue
		}
		for j, r := range ch {
			if r == (depRecord{next: -1}) {
				st.Removed = append(st.Removed, int32(c<<recChunkShift+j))
			}
		}
	}
	return st
}

// restore overwrites a new map with a captured state. Each live record
// is linked at the head of the chain its key hashes to, which rebuilds
// every chain in its captured order. Every slot the state names is
// checked before it is used: in range and named once, so that no chain
// reaches another or itself (a live record must have a kind, so that
// it fills its slot); the free stack may hold only free slots and no
// live record may sit in its prefix, so that no hand-out overwrites a
// live record; and the free and the live slots must be every slot.
func (p *pmap) restore(st *PMapState) error {
	// The map is new: every chunk unallocated, every chain empty, the
	// free stack all canonical. Only the capture's deviations apply.
	set := func(slot int32, r depRecord) error {
		if slot < 0 || slot >= p.n || p.peek(slot) != (depRecord{}) {
			return fmt.Errorf("ck: restore: pmap slot %d out of range or named twice", slot)
		}
		p.allocChunk(slot)
		*p.rec(slot) = r
		return nil
	}
	for _, r := range st.Recs {
		if depKind(r.Ctx&ctxKindMask) == depFree {
			return fmt.Errorf("ck: restore: pmap record %d has no kind", r.Slot)
		}
		b := p.bucket(r.Key)
		if err := set(r.Slot, depRecord{key: r.Key, dep: r.Dep, ctx: r.Ctx, next: p.head(b)}); err != nil {
			return err
		}
		p.setHead(b, r.Slot)
	}
	for _, slot := range st.Removed {
		if err := set(slot, depRecord{next: -1}); err != nil {
			return err
		}
	}
	free := func(idx int32) bool { r := p.peek(idx); return r.kind() == depFree }
	if err := p.free.restore(st.Free, free); err != nil {
		return fmt.Errorf("ck: restore: pmap %w", err)
	}
	// A removed record can sit in the canonical prefix (a released
	// fresh-1 slot rejoins it), a live one cannot.
	for _, r := range st.Recs {
		if r.Slot >= p.free.fresh {
			return fmt.Errorf("ck: restore: pmap record %d is live but in the free-stack prefix (from %d)", r.Slot, p.free.fresh)
		}
	}
	live := len(st.Recs)
	if free := p.free.len(); free+live != int(p.n) {
		return fmt.Errorf("ck: restore: pmap free %d + live %d != capacity %d", free, live, p.n)
	}
	if st.Hand < 0 || st.Hand >= p.n {
		return fmt.Errorf("ck: restore: pmap clock hand %d out of range", st.Hand)
	}
	p.live = live
	p.hand = st.Hand
	p.Reloads = st.Reloads
	return nil
}
