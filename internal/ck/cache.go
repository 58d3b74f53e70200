package ck

// objCache is the fixed-capacity descriptor cache underlying each object
// type. Slots are recycled in least-recently-loaded order when the cache
// is full; locked slots are skipped by reclamation (but see the
// dependency rules in unload: a locked object with an unlocked
// dependency is still reclaimable through that dependency).
//
// The descriptor array is allocated once at boot and accounted against
// the MPM's local RAM with the paper's descriptor byte sizes, so the
// Section 5.2 memory arithmetic reproduces.
type objCache[T any] struct {
	name  string
	slots []cacheSlot[T]
	free  []int32
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

func newObjCache[T any](name string, capacity int) *objCache[T] {
	c := &objCache[T]{
		name:    name,
		slots:   make([]cacheSlot[T], capacity),
		lruHead: -1,
		lruTail: -1,
	}
	// Push free slots so that slot 0 is allocated first.
	for i := capacity - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	return c
}

// alloc takes a free slot, returning its index and new generation, or
// ok=false if the cache is full (caller must evict first).
func (c *objCache[T]) alloc() (idx int32, gen uint32, ok bool) {
	if len(c.free) == 0 {
		return 0, 0, false
	}
	idx = c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
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
	c.free = append(c.free, idx)
	c.loaded--
}

// wipe releases every slot at once without running any reclaim or
// writeback protocol — the crash path. Per-slot generation counters
// are preserved (alloc bumps them), so no identifier handed out before
// the wipe can ever validate against an object loaded after it. The
// free list is rebuilt in boot order so a post-crash reboot allocates
// slots in exactly the sequence a fresh cache would.
func (c *objCache[T]) wipe() {
	var zero T
	for i := range c.slots {
		s := &c.slots[i]
		s.inUse = false
		s.locked = false
		s.obj = zero
		s.prev, s.next = -1, -1
	}
	c.free = c.free[:0]
	for i := len(c.slots) - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
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
func (c *objCache[T]) Capacity() int { return len(c.slots) }

// CacheShape is the structural skeleton of a descriptor cache: every
// slot's generation and lock bit, the loaded set in exact LRU order,
// the free list in exact stack order, and the observability counters.
// Together with the per-slot objects it is a complete capture — a cache
// restored from a shape allocates future slots in the identical order
// and mints identical (generation-bearing) identifiers.
type CacheShape struct {
	Gens                  []uint32
	Locked                []bool
	LRU                   []int32 // loaded slots, least recently used first
	Free                  []int32
	Hits, Misses, Reloads uint64
}

// shape captures the cache's structural skeleton.
func (c *objCache[T]) shape() CacheShape {
	sh := CacheShape{
		Gens:    make([]uint32, len(c.slots)),
		Locked:  make([]bool, len(c.slots)),
		Free:    append([]int32(nil), c.free...),
		Hits:    c.Hits,
		Misses:  c.Misses,
		Reloads: c.Reloads,
	}
	for i := range c.slots {
		sh.Gens[i] = c.slots[i].gen
		sh.Locked[i] = c.slots[i].locked
	}
	for idx := c.lruHead; idx != -1; idx = c.slots[idx].next {
		sh.LRU = append(sh.LRU, idx)
	}
	return sh
}

// restoreShape overwrites the cache's skeleton with a captured shape;
// obj supplies the object for each loaded slot (called in LRU order).
// The cache must have the captured capacity and be freshly built or
// wiped (no loaded slots).
func (c *objCache[T]) restoreShape(sh CacheShape, obj func(slot int32) (T, error)) error {
	if len(sh.Gens) != len(c.slots) {
		return errShape(c.name, "capacity", len(sh.Gens), len(c.slots))
	}
	if c.loaded != 0 {
		return errShape(c.name, "loaded slots at restore", c.loaded, 0)
	}
	if len(sh.Free)+len(sh.LRU) != len(c.slots) {
		return errShape(c.name, "free+loaded", len(sh.Free)+len(sh.LRU), len(c.slots))
	}
	for i := range c.slots {
		c.slots[i] = cacheSlot[T]{gen: sh.Gens[i], prev: -1, next: -1}
	}
	c.free = append(c.free[:0], sh.Free...)
	c.lruHead, c.lruTail = -1, -1
	c.loaded = 0
	for _, idx := range sh.LRU {
		if idx < 0 || int(idx) >= len(c.slots) || c.slots[idx].inUse {
			return errShape(c.name, "LRU slot", int(idx), len(c.slots))
		}
		o, err := obj(idx)
		if err != nil {
			return err
		}
		s := &c.slots[idx]
		s.obj = o
		s.inUse = true
		s.locked = sh.Locked[idx]
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
