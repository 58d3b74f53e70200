package ck

import (
	"reflect"
	"testing"
	"testing/quick"

	"vpp/internal/sim"
)

func TestObjCacheLRUOrder(t *testing.T) {
	c := newObjCache[int]("t", 3)
	a, _, _ := c.alloc()
	b, _, _ := c.alloc()
	d, _, _ := c.alloc()
	c.set(a, 1)
	c.set(b, 2)
	c.set(d, 3)
	if _, _, ok := c.alloc(); ok {
		t.Fatal("alloc from full cache succeeded")
	}
	// LRU victim is the first allocated.
	v, ok := c.victim(func(int32) bool { return true })
	if !ok || v != a {
		t.Fatalf("victim = %d, want %d", v, a)
	}
	// Touch promotes: a becomes most recent, b the victim.
	c.touch(a)
	v, _ = c.victim(func(int32) bool { return true })
	if v != b {
		t.Fatalf("victim after touch = %d, want %d", v, b)
	}
	// Locked slots are skipped by the predicate convention.
	c.setLocked(b, true)
	v, _ = c.victim(func(idx int32) bool { return !c.lockedSlot(idx) })
	if v != d {
		t.Fatalf("victim skipping locked = %d, want %d", v, d)
	}
}

// TestNewObjCacheBuildsNoSlots checks that building a descriptor cache
// allocates the cache alone, no slot and no free stack, and that it
// still hands out slot 0 first, then each slot in order, up to its
// capacity.
func TestNewObjCacheBuildsNoSlots(t *testing.T) {
	const capacity = 256
	var c *objCache[int]
	if n := testing.AllocsPerRun(16, func() { c = newObjCache[int]("t", capacity) }); n > 1 {
		t.Fatalf("newObjCache makes %v allocations, want 1", n)
	}
	for want := int32(0); want < capacity; want++ {
		if idx, _, ok := c.alloc(); !ok || idx != want {
			t.Fatalf("allocation %d took slot %d (ok %v)", want, idx, ok)
		}
	}
	if _, _, ok := c.alloc(); ok {
		t.Fatal("alloc past the capacity succeeded")
	}
}

// denseObjCache is the descriptor cache as it was before it grew with
// use: every slot and the whole free stack built up front. It stays
// here as the executable spec objCache must match slot for slot.
type denseObjCache[T any] struct {
	slots                 []cacheSlot[T]
	free                  []int32
	lruHead, lruTail      int32
	loaded                int
	hits, misses, reloads uint64
}

func newDenseObjCache[T any](capacity int) *denseObjCache[T] {
	c := &denseObjCache[T]{slots: make([]cacheSlot[T], capacity), lruHead: -1, lruTail: -1}
	for i := capacity - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	return c
}

func (c *denseObjCache[T]) alloc() (int32, uint32, bool) {
	if len(c.free) == 0 {
		return 0, 0, false
	}
	idx := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	s := &c.slots[idx]
	s.gen++
	if s.gen > 1 {
		c.reloads++
	}
	s.inUse, s.locked = true, false
	c.lruAppend(idx)
	c.loaded++
	return idx, s.gen, true
}

func (c *denseObjCache[T]) get(idx int32, gen uint32) (T, bool) {
	var zero T
	if idx < 0 || int(idx) >= len(c.slots) || !c.slots[idx].inUse || c.slots[idx].gen != gen {
		c.misses++
		return zero, false
	}
	c.hits++
	return c.slots[idx].obj, true
}

func (c *denseObjCache[T]) release(idx int32) {
	var zero T
	c.lruRemove(idx)
	s := &c.slots[idx]
	s.inUse, s.locked, s.obj = false, false, zero
	c.free = append(c.free, idx)
	c.loaded--
}

func (c *denseObjCache[T]) wipe() {
	for i := range c.slots {
		c.slots[i] = cacheSlot[T]{gen: c.slots[i].gen, prev: -1, next: -1}
	}
	c.free = c.free[:0]
	for i := len(c.slots) - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	c.lruHead, c.lruTail = -1, -1
	c.loaded = 0
}

func (c *denseObjCache[T]) touch(idx int32) {
	c.lruRemove(idx)
	c.lruAppend(idx)
}

func (c *denseObjCache[T]) victim(reclaimable func(idx int32) bool) (int32, bool) {
	for idx := c.lruHead; idx != -1; idx = c.slots[idx].next {
		if reclaimable(idx) {
			return idx, true
		}
	}
	return -1, false
}

// shape captures the generations up to the last slot that has one,
// every slot handed out so far, since alloc gives each a generation.
func (c *denseObjCache[T]) shape() CacheShape {
	used := len(c.slots)
	for used > 0 && c.slots[used-1].gen == 0 {
		used--
	}
	sh := CacheShape{
		Gens:    make([]uint32, used),
		Free:    freeStackOf(c.free, len(c.slots)),
		Hits:    c.hits,
		Misses:  c.misses,
		Reloads: c.reloads,
	}
	for i := range sh.Gens {
		sh.Gens[i] = c.slots[i].gen
	}
	for idx := c.lruHead; idx != -1; idx = c.slots[idx].next {
		sh.LRU = append(sh.LRU, idx)
		sh.Locked = append(sh.Locked, c.slots[idx].locked)
	}
	return sh
}

// restoreShape restores a valid shape; the spec checks nothing.
func (c *denseObjCache[T]) restoreShape(sh CacheShape, obj func(slot int32) T) {
	for i := range c.slots {
		c.slots[i] = cacheSlot[T]{prev: -1, next: -1}
	}
	for i, gen := range sh.Gens {
		c.slots[i].gen = gen
	}
	c.free = freeListOf(sh.Free, len(c.slots))
	c.lruHead, c.lruTail = -1, -1
	c.loaded = 0
	for i, idx := range sh.LRU {
		s := &c.slots[idx]
		s.obj, s.inUse, s.locked = obj(idx), true, sh.Locked[i]
		c.lruAppend(idx)
		c.loaded++
	}
	c.hits, c.misses, c.reloads = sh.Hits, sh.Misses, sh.Reloads
}

// freeStackOf captures the whole free list of a pool of n slots as its
// longest canonical prefix [n-1, n-2, ...] and the rest.
func freeStackOf(free []int32, n int) FreeStack {
	canon := 0
	for canon < len(free) && free[canon] == int32(n-1-canon) {
		canon++
	}
	return FreeStack{Canon: int32(canon), Tail: append([]int32(nil), free[canon:]...)}
}

// freeListOf is the whole free list of a captured stack.
func freeListOf(fs FreeStack, n int) []int32 {
	var free []int32
	for i := 0; i < int(fs.Canon); i++ {
		free = append(free, int32(n-1-i))
	}
	return append(free, fs.Tail...)
}

func (c *denseObjCache[T]) lruAppend(idx int32) {
	s := &c.slots[idx]
	s.prev, s.next = c.lruTail, -1
	if c.lruTail != -1 {
		c.slots[c.lruTail].next = idx
	} else {
		c.lruHead = idx
	}
	c.lruTail = idx
}

func (c *denseObjCache[T]) lruRemove(idx int32) {
	s := &c.slots[idx]
	if s.prev != -1 {
		c.slots[s.prev].next = s.next
	} else {
		c.lruHead = s.next
	}
	if s.next != -1 {
		c.slots[s.next].prev = s.prev
	} else {
		c.lruTail = s.prev
	}
	s.prev, s.next = -1, -1
}

// TestObjCacheMatchesDense runs seeded scripts of alloc, release,
// touch, setLocked, victim, identifier lookups, wipe, shape and
// restoreShape on objCache and on the dense spec, at capacities from 1
// to past the thread cache's. Every slot and generation handed out,
// every victim and lookup, the LRU order, the loaded count, the
// capacity and the counters must agree after each step, and every
// captured shape must be the spec's. A restore goes into a new cache
// or into the wiped one, alternately, and the script goes on with the
// restored pair.
func TestObjCacheMatchesDense(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 300} {
		for seed := uint64(1); seed <= 6; seed++ {
			c, d := newObjCache[int]("t", n), newDenseObjCache[int](n)
			r := sim.NewRand(seed*1000 + uint64(n))
			// ids remembers identifiers handed out, some since released
			// or wiped, for lookups that must miss.
			var ids [][2]uint32
			var live []int32
			check := func(op int, what string) {
				t.Helper()
				if c.Loaded() != d.loaded || c.Capacity() != n || c.Hits != d.hits || c.Misses != d.misses || c.Reloads != d.reloads {
					t.Fatalf("n=%d seed=%d op %d (%s): loaded %d cap %d counters %d/%d/%d; spec loaded %d cap %d counters %d/%d/%d",
						n, seed, op, what, c.Loaded(), c.Capacity(), c.Hits, c.Misses, c.Reloads,
						d.loaded, n, d.hits, d.misses, d.reloads)
				}
				if got, want := c.shape(), d.shape(); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d seed=%d op %d (%s): shape\n %+v\nspec\n %+v", n, seed, op, what, got, want)
				}
			}
			// Phases that fill, drain and churn, so the cache runs full,
			// frees slots out of order and reuses them.
			for op := 0; op < 1500; op++ {
				fill := (op/100)%3 != 1
				var what string
				switch x := r.Intn(100); {
				case x < 40 && (fill || len(live) == 0):
					what = "alloc"
					idx, gen, ok := c.alloc()
					didx, dgen, dok := d.alloc()
					if idx != didx || gen != dgen || ok != dok {
						t.Fatalf("n=%d seed=%d op %d: alloc (%d,%d,%v), spec (%d,%d,%v)", n, seed, op, idx, gen, ok, didx, dgen, dok)
					}
					if ok {
						c.set(idx, op)
						d.slots[idx].obj = op
						live = append(live, idx)
						ids = append(ids, [2]uint32{uint32(idx), gen})
					}
				case x < 60 && len(live) > 0:
					what = "release"
					j := r.Intn(len(live))
					c.release(live[j])
					d.release(live[j])
					live = append(live[:j], live[j+1:]...)
				case x < 70 && len(live) > 0:
					what = "touch"
					idx := live[r.Intn(len(live))]
					c.touch(idx)
					d.touch(idx)
				case x < 78 && len(live) > 0:
					what = "setLocked"
					idx, v := live[r.Intn(len(live))], r.Intn(2) == 0
					c.setLocked(idx, v)
					d.slots[idx].locked = v
				case x < 84:
					what = "victim"
					got, ok := c.victim(func(idx int32) bool { return !c.lockedSlot(idx) })
					want, wok := d.victim(func(idx int32) bool { return !d.slots[idx].locked })
					if got != want || ok != wok {
						t.Fatalf("n=%d seed=%d op %d: victim (%d,%v), spec (%d,%v)", n, seed, op, got, ok, want, wok)
					}
				case x < 94 && len(ids) > 0:
					what = "get"
					id := ids[r.Intn(len(ids))]
					idx, gen := int32(id[0]), id[1]
					if r.Intn(8) == 0 {
						idx = int32(r.Intn(n+2)) - 1 // out of range or never used
					}
					got, ok := c.get(idx, gen)
					want, wok := d.get(idx, gen)
					if got != want || ok != wok {
						t.Fatalf("n=%d seed=%d op %d: get(%d,%d) (%d,%v), spec (%d,%v)", n, seed, op, idx, gen, got, ok, want, wok)
					}
				case x < 96:
					what = "wipe"
					c.wipe()
					d.wipe()
					live = live[:0]
				default:
					what = "restoreShape"
					sh := c.shape()
					obj := func(slot int32) int { return d.slots[slot].obj }
					next := newObjCache[int]("t", n)
					if op%2 == 0 {
						c.wipe()
						next = c
					}
					if err := next.restoreShape(sh, func(_ int, slot int32) (int, error) { return obj(slot), nil }); err != nil {
						t.Fatalf("n=%d seed=%d op %d: restoreShape of a captured shape: %v", n, seed, op, err)
					}
					nd := newDenseObjCache[int](n)
					nd.restoreShape(d.shape(), obj)
					c, d = next, nd
					for _, idx := range live {
						if got, want := c.at(idx), d.slots[idx].obj; got != want {
							t.Fatalf("n=%d seed=%d op %d: restored slot %d holds %d, spec %d", n, seed, op, idx, got, want)
						}
					}
				}
				check(op, what)
			}
		}
	}
}

func TestObjCacheGenerationInvalidation(t *testing.T) {
	c := newObjCache[string]("t", 2)
	idx, gen, _ := c.alloc()
	c.set(idx, "first")
	c.release(idx)
	idx2, gen2, _ := c.alloc()
	if idx2 != idx {
		t.Fatalf("slot not recycled: %d vs %d", idx2, idx)
	}
	if gen2 == gen {
		t.Fatal("generation not bumped on reuse")
	}
	if _, ok := c.get(idx, gen); ok {
		t.Fatal("stale generation resolved")
	}
	if v, ok := c.get(idx2, gen2); !ok || v != "" {
		t.Fatalf("fresh slot get = %q, %v", v, ok)
	}
}

func TestObjCachePropertyAllocReleaseBalance(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		r := sim.NewRand(seed)
		const cap = 8
		c := newObjCache[int]("p", cap)
		var live []int32
		for i := 0; i < int(nOps); i++ {
			if r.Intn(2) == 0 {
				if idx, _, ok := c.alloc(); ok {
					live = append(live, idx)
				} else if len(live) != cap {
					return false
				}
			} else if len(live) > 0 {
				j := r.Intn(len(live))
				c.release(live[j])
				live = append(live[:j], live[j+1:]...)
			}
			if c.Loaded() != len(live) {
				return false
			}
		}
		// LRU walk visits exactly the live slots.
		n := 0
		c.forEach(func(int32, int) bool { n++; return true })
		return n == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPMapChainsProperty(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		r := sim.NewRand(seed)
		p := newPMap(32, 8)
		type rec struct {
			idx  int32
			key  uint32
			dep  uint32
			kind depKind
		}
		var live []rec
		for i := 0; i < int(nOps); i++ {
			if r.Intn(2) == 0 {
				kind := depKind(1 + r.Intn(3))
				key := uint32(r.Intn(12))
				dep := uint32(r.Intn(1000))
				if idx, ok := p.insert(kind, key, dep, int32(r.Intn(4))); ok {
					live = append(live, rec{idx, key, dep, kind})
				} else if len(live) != 32 {
					return false
				}
			} else if len(live) > 0 {
				j := r.Intn(len(live))
				p.remove(live[j].idx)
				live = append(live[:j], live[j+1:]...)
			}
			if p.Live() != len(live) {
				return false
			}
		}
		// Every live record is findable through its chain.
		for _, rc := range live {
			found := false
			p.findEach(rc.kind, rc.key, func(idx int32, r *depRecord) bool {
				if idx == rc.idx && r.dep == rc.dep {
					found = true
					return false
				}
				return true
			})
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPMapReservationHandoff(t *testing.T) {
	p := newPMap(4, 4)
	var idxs []int32
	for i := 0; i < 4; i++ {
		idx, ok := p.insert(depPhysVirt, uint32(i), uint32(i), 0)
		if !ok {
			t.Fatal("insert failed")
		}
		idxs = append(idxs, idx)
	}
	if _, ok := p.takeFree(); ok {
		t.Fatal("takeFree from full pool succeeded")
	}
	// removeKeep does not return the slot to the free pool...
	p.removeKeep(idxs[0])
	if _, ok := p.takeFree(); ok {
		t.Fatal("kept slot leaked into the free pool")
	}
	// ...but insertAt can fill it directly.
	p.insertAt(idxs[0], depSignal, 9, 9, 1)
	if p.Live() != 4 {
		t.Fatalf("live = %d", p.Live())
	}
	// Releasing an unused reservation returns it.
	p.remove(idxs[1])
	idx, ok := p.takeFree()
	if !ok {
		t.Fatal("takeFree after remove failed")
	}
	p.free.release(idx)
	if idx2, ok := p.takeFree(); !ok || idx2 != idx {
		t.Fatal("release round trip failed")
	}
}

func TestObjIDEncoding(t *testing.T) {
	f := func(gen uint32, slot uint16) bool {
		for _, typ := range []ObjType{ObjKernel, ObjSpace, ObjThread} {
			id := makeID(typ, gen, int(slot))
			if id.Type() != typ || id.gen() != gen || id.slot() != int(slot) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if ObjID(0).Type() != ObjInvalid {
		t.Fatal("zero id has a valid type")
	}
}

func TestRTLBVersioning(t *testing.T) {
	r := newRTLB(2)
	r.fill(5, 1, []rtlbReceiver{{threadSlot: 1, gen: 1, va: 0x1000}})
	if recv, ok := r.lookup(5, 1); !ok || len(recv) != 1 {
		t.Fatal("current-version lookup missed")
	}
	if _, ok := r.lookup(5, 2); ok {
		t.Fatal("stale-version lookup hit")
	}
	// The stale entry self-invalidated; refill works.
	r.fill(5, 2, nil)
	if recv, ok := r.lookup(5, 2); !ok || len(recv) != 0 {
		t.Fatalf("refill lookup: %v %v", recv, ok)
	}
	// Disabled RTLB never hits.
	d := newRTLB(0)
	d.fill(1, 1, nil)
	if _, ok := d.lookup(1, 1); ok {
		t.Fatal("disabled rtlb hit")
	}
}
