package ck

import (
	"fmt"
	"slices"
)

// objCache is the fixed-capacity descriptor cache underlying each object
// type. Slots are recycled in least-recently-loaded order when the cache
// is full; locked slots are skipped by reclamation (but see the
// dependency rules in unload: a locked object with an unlocked
// dependency is still reclaimable through that dependency).
//
// The capacity is accounted against the MPM's local RAM in full at
// boot, with the paper's descriptor byte sizes, so the Section 5.2
// memory arithmetic reproduces. The host stores only the slots a run
// has used, as the pmap does: slots holds every slot handed out so far
// (a slot past its end has never been used: free, unlocked, generation
// 0, and in the free stack's canonical prefix).
type objCache[T any] struct {
	name  string
	slots []cacheSlot[T]
	free  freeStack

	// Intrusive LRU of loaded slots: head is least recently used.
	lruHead, lruTail int32
	loaded           int

	// Cache-observability counters (derived purely from simulation
	// events, so they are as deterministic as the virtual clock). A hit
	// is a generation-valid identifier lookup; a miss is a lookup whose
	// identifier no longer names a loaded object — the caching model's
	// "identifier failure" event; a reload is an allocation into a slot
	// that has held an object before (the reload half of the
	// writeback/reload protocol, at slot granularity).
	Hits, Misses, Reloads uint64
}

type cacheSlot[T any] struct {
	obj        T
	gen        uint32
	inUse      bool
	locked     bool
	prev, next int32
}

// freeStack is the free-slot stack of a fixed pool of n slots, shared
// by the pmap and the descriptor caches. It is the canonical prefix
// [n-1, n-2, ..., fresh] — a new pool's order, so slot 0 goes first —
// held as the one number fresh, with tail, the slots freed since, on
// top of it in push order.
type freeStack struct {
	n, fresh int32
	tail     []int32
}

// take pops a free slot, or reports ok=false if the pool is exhausted.
func (s *freeStack) take() (idx int32, ok bool) {
	if k := len(s.tail); k > 0 {
		idx = s.tail[k-1]
		s.tail = s.tail[:k-1]
		return idx, true
	}
	if s.fresh < s.n {
		s.fresh++
		return s.fresh - 1, true
	}
	return -1, false
}

// release pushes slot idx. A slot that continues the untouched prefix
// onto an empty tail rejoins the prefix. The tail holds distinct slots
// below fresh, so when it is full it grows once, to that bound.
func (s *freeStack) release(idx int32) {
	if len(s.tail) == 0 && idx == s.fresh-1 {
		s.fresh--
		return
	}
	if len(s.tail) == cap(s.tail) {
		s.tail = slices.Grow(s.tail, int(s.fresh)-len(s.tail))
	}
	s.tail = append(s.tail, idx)
}

// len reports the number of free slots.
func (s *freeStack) len() int { return int(s.n-s.fresh) + len(s.tail) }

// reset frees every slot, in a new pool's order.
func (s *freeStack) reset() {
	s.fresh = 0
	s.tail = s.tail[:0]
}

// FreeStack is a captured free stack: the length of its canonical
// prefix [n-1, n-2, ..., n-Canon] and the slots on top of it in push
// order. Its exact order decides every future hand-out.
type FreeStack struct {
	Canon int32
	Tail  []int32
}

func (s *freeStack) state() FreeStack {
	return FreeStack{Canon: s.n - s.fresh, Tail: append([]int32(nil), s.tail...)}
}

// restore overwrites the stack with a captured one. It refuses a
// prefix length outside [0, n], and a tail slot outside the pool or in
// the prefix, listed twice, or one that free says is in use, so that no
// hand-out reaches past the pool or takes a slot twice.
func (s *freeStack) restore(st FreeStack, free func(idx int32) bool) error {
	if st.Canon < 0 || st.Canon > s.n {
		return fmt.Errorf("free-stack prefix %d out of range [0, %d]", st.Canon, s.n)
	}
	fresh := s.n - st.Canon
	listed := make([]uint64, (fresh+63)/64) // each tail slot seen so far
	for _, idx := range st.Tail {
		switch {
		case idx < 0 || idx >= fresh:
			return fmt.Errorf("free slot %d out of range (canonical prefix starts at %d)", idx, fresh)
		case listed[idx/64]&(1<<(idx%64)) != 0:
			return fmt.Errorf("free slot %d listed twice", idx)
		case !free(idx):
			return fmt.Errorf("free slot %d is in use", idx)
		}
		listed[idx/64] |= 1 << (idx % 64)
	}
	s.fresh = fresh
	s.tail = append(s.tail[:0], st.Tail...)
	return nil
}

func newObjCache[T any](name string, capacity int) *objCache[T] {
	return &objCache[T]{name: name, free: freeStack{n: int32(capacity)}, lruHead: -1, lruTail: -1}
}

// alloc takes a free slot, returning its index and new generation, or
// ok=false if the cache is full (caller must evict first).
func (c *objCache[T]) alloc() (idx int32, gen uint32, ok bool) {
	idx, ok = c.free.take()
	if !ok {
		return 0, 0, false
	}
	if int(idx) == len(c.slots) { // the first hand-out of the slot
		c.slots = append(c.slots, cacheSlot[T]{})
	}
	s := &c.slots[idx]
	s.gen++
	if s.gen > 1 {
		c.Reloads++
	}
	s.inUse = true
	s.locked = false
	s.prev, s.next = -1, -1
	c.lruAppend(idx)
	c.loaded++
	return idx, s.gen, true
}

// get returns the object in slot idx if the generation matches.
func (c *objCache[T]) get(idx int32, gen uint32) (T, bool) {
	var zero T
	if idx < 0 || int(idx) >= len(c.slots) {
		c.Misses++
		return zero, false
	}
	s := &c.slots[idx]
	if !s.inUse || s.gen != gen {
		c.Misses++
		return zero, false
	}
	c.Hits++
	return s.obj, true
}

// valid reports whether slot idx currently holds generation gen. It
// does not touch the hit/miss accounting: the counters model identifier
// lookups by kernel operations, and this is internal revalidation
// across a yield point.
func (c *objCache[T]) valid(idx int32, gen uint32) bool {
	return idx >= 0 && int(idx) < len(c.slots) && c.slots[idx].inUse && c.slots[idx].gen == gen
}

// set stores the object value in an allocated slot.
func (c *objCache[T]) set(idx int32, obj T) { c.slots[idx].obj = obj }

// at returns the object in slot idx regardless of generation; the slot
// must be in use.
func (c *objCache[T]) at(idx int32) T {
	if !c.slots[idx].inUse {
		panic(c.name + ": at() on free slot")
	}
	return c.slots[idx].obj
}

// peek returns the object in slot idx if the slot is in use, without a
// generation check. Unlike at it tolerates free (and out-of-range)
// slots, for callers chasing dependency records that may outlive the
// object they name.
func (c *objCache[T]) peek(idx int32) (T, bool) {
	var zero T
	if idx < 0 || int(idx) >= len(c.slots) || !c.slots[idx].inUse {
		return zero, false
	}
	return c.slots[idx].obj, true
}

// release frees slot idx for reuse.
func (c *objCache[T]) release(idx int32) {
	s := &c.slots[idx]
	if !s.inUse {
		panic(c.name + ": release of free slot")
	}
	var zero T
	c.lruRemove(idx)
	s.inUse = false
	s.locked = false
	s.obj = zero
	c.free.release(idx)
	c.loaded--
}

// wipe releases every slot at once without running any reclaim or
// writeback protocol — the crash path. Per-slot generation counters
// are preserved (alloc bumps them), so no identifier handed out before
// the wipe can ever validate against an object loaded after it. The
// free stack is reset to the canonical prefix, boot order, so a
// post-crash reboot allocates slots in exactly the sequence a fresh
// cache would.
func (c *objCache[T]) wipe() {
	for i := range c.slots {
		c.slots[i] = cacheSlot[T]{gen: c.slots[i].gen, prev: -1, next: -1}
	}
	c.free.reset()
	c.lruHead, c.lruTail = -1, -1
	c.loaded = 0
}

// touch marks slot idx most recently used.
func (c *objCache[T]) touch(idx int32) {
	c.lruRemove(idx)
	c.lruAppend(idx)
}

// setLocked marks or clears the slot's lock bit.
func (c *objCache[T]) setLocked(idx int32, locked bool) { c.slots[idx].locked = locked }

// lockedSlot reports the slot's lock bit.
func (c *objCache[T]) lockedSlot(idx int32) bool { return c.slots[idx].locked }

// victim returns the least recently used reclaimable slot. reclaimable
// lets the caller apply the dependency-aware locking rule (an object is
// protected only when it and everything it depends on are locked).
// ok=false means every loaded slot is protected.
func (c *objCache[T]) victim(reclaimable func(idx int32) bool) (int32, bool) {
	for idx := c.lruHead; idx != -1; idx = c.slots[idx].next {
		if reclaimable(idx) {
			return idx, true
		}
	}
	return -1, false
}

// forEach visits every loaded slot in LRU order.
func (c *objCache[T]) forEach(fn func(idx int32, obj T) bool) {
	for idx := c.lruHead; idx != -1; {
		next := c.slots[idx].next // fn may release idx
		if !fn(idx, c.slots[idx].obj) {
			return
		}
		idx = next
	}
}

// Loaded reports the number of slots in use.
func (c *objCache[T]) Loaded() int { return c.loaded }

// Capacity reports the total slot count.
func (c *objCache[T]) Capacity() int { return int(c.free.n) }

// CacheShape is the structural skeleton of a descriptor cache: the
// generation of every slot handed out so far (every later slot is at
// generation 0), the loaded set in exact LRU order with each loaded
// slot's lock bit (a free slot's is always clear), the free stack, and
// the observability counters. Together with the per-slot objects it is
// a complete capture — a cache restored from a shape allocates future
// slots in the identical order and mints identical
// (generation-bearing) identifiers.
type CacheShape struct {
	Gens                  []uint32
	Locked                []bool  // per LRU entry
	LRU                   []int32 // loaded slots, least recently used first
	Free                  FreeStack
	Hits, Misses, Reloads uint64
}

// shape captures the cache's structural skeleton.
func (c *objCache[T]) shape() CacheShape {
	sh := CacheShape{
		Gens:    make([]uint32, len(c.slots)),
		Free:    c.free.state(),
		Hits:    c.Hits,
		Misses:  c.Misses,
		Reloads: c.Reloads,
	}
	for i := range c.slots {
		sh.Gens[i] = c.slots[i].gen
	}
	for idx := c.lruHead; idx != -1; idx = c.slots[idx].next {
		sh.LRU = append(sh.LRU, idx)
		sh.Locked = append(sh.Locked, c.slots[idx].locked)
	}
	return sh
}

// restoreShape overwrites the cache's skeleton with a captured shape;
// obj supplies the object for each loaded slot, called in LRU order
// with the slot's LRU position. The cache must be freshly built or
// wiped (no loaded slots). Every slot index is checked before it is
// used: the loaded and the free slots must be distinct, in range, and
// together every slot, so that no hand-out reaches past the cache or
// takes a loaded slot. The captured generations must cover every slot
// below the canonical prefix, and only those slots are built.
func (c *objCache[T]) restoreShape(sh CacheShape, obj func(i int, slot int32) (T, error)) error {
	n := int(c.free.n)
	if c.loaded != 0 {
		return errShape(c.name, "loaded slots at restore", c.loaded, 0)
	}
	if fs := sh.Free; fs.Canon < 0 || int(fs.Canon)+len(fs.Tail)+len(sh.LRU) != n {
		return fmt.Errorf("ck: %s cache restore: free-stack prefix %d + tail %d + loaded %d != capacity %d",
			c.name, fs.Canon, len(fs.Tail), len(sh.LRU), n)
	}
	fresh := c.free.n - sh.Free.Canon
	if len(sh.Gens) < int(fresh) || len(sh.Gens) > n {
		return fmt.Errorf("ck: %s cache restore: %d generations, want %d to %d", c.name, len(sh.Gens), fresh, n)
	}
	if len(sh.Locked) != len(sh.LRU) {
		return errShape(c.name, "lock bits per loaded slot", len(sh.Locked), len(sh.LRU))
	}
	c.slots = make([]cacheSlot[T], len(sh.Gens))
	for i, gen := range sh.Gens {
		c.slots[i] = cacheSlot[T]{gen: gen, prev: -1, next: -1}
	}
	c.lruHead, c.lruTail = -1, -1
	c.loaded = 0
	// Every loaded slot lies below the canonical prefix and is named
	// once; inUse marks each, so that the free stack refuses it.
	for _, idx := range sh.LRU {
		if idx < 0 || idx >= fresh || c.slots[idx].inUse {
			return errShape(c.name, "LRU slot", int(idx), int(fresh))
		}
		c.slots[idx].inUse = true
	}
	if err := c.free.restore(sh.Free, func(idx int32) bool { return !c.slots[idx].inUse }); err != nil {
		return fmt.Errorf("ck: %s cache restore: %w", c.name, err)
	}
	for i, idx := range sh.LRU {
		o, err := obj(i, idx)
		if err != nil {
			return err
		}
		s := &c.slots[idx]
		s.obj = o
		s.locked = sh.Locked[i]
		c.lruAppend(idx)
		c.loaded++
	}
	c.Hits = sh.Hits
	c.Misses = sh.Misses
	c.Reloads = sh.Reloads
	return nil
}

func (c *objCache[T]) lruAppend(idx int32) {
	s := &c.slots[idx]
	s.prev = c.lruTail
	s.next = -1
	if c.lruTail != -1 {
		c.slots[c.lruTail].next = idx
	} else {
		c.lruHead = idx
	}
	c.lruTail = idx
}

func (c *objCache[T]) lruRemove(idx int32) {
	s := &c.slots[idx]
	if s.prev != -1 {
		c.slots[s.prev].next = s.next
	} else if c.lruHead == idx {
		c.lruHead = s.next
	}
	if s.next != -1 {
		c.slots[s.next].prev = s.prev
	} else if c.lruTail == idx {
		c.lruTail = s.prev
	}
	s.prev, s.next = -1, -1
}
