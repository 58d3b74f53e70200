package ck

import (
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

// TestNewObjCacheAllocatesOnce checks that building a descriptor cache
// allocates the cache, its slot array and its free stack once each,
// and that the free stack hands out slot 0 first, then each slot in
// order.
func TestNewObjCacheAllocatesOnce(t *testing.T) {
	const capacity = 256
	var c *objCache[int]
	if n := testing.AllocsPerRun(16, func() { c = newObjCache[int]("t", capacity) }); n > 3 {
		t.Fatalf("newObjCache makes %v allocations, want 3", n)
	}
	for want := int32(0); want < capacity; want++ {
		if idx, _, ok := c.alloc(); !ok || idx != want {
			t.Fatalf("allocation %d took slot %d (ok %v)", want, idx, ok)
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
	// releaseSlot returns an unused reservation.
	p.remove(idxs[1])
	idx, ok := p.takeFree()
	if !ok {
		t.Fatal("takeFree after remove failed")
	}
	p.releaseSlot(idx)
	if idx2, ok := p.takeFree(); !ok || idx2 != idx {
		t.Fatal("releaseSlot round trip failed")
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
