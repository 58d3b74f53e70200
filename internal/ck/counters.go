package ck

// Counters is the one counter view of a Cache Kernel instance and its
// MPM: the kernel's Stats, each descriptor cache's occupancy and
// protocol events, and the MPM's TLB and L2 totals. Every field is a
// uint64 copied from the structure where its event is counted, so two
// views compare with == and a phase's counts are the difference of the
// views taken before and after it; nothing resets a counter.
//
// Per descriptor cache, Loaded and Capacity are its occupancy; Hits are
// generation-valid identifier lookups and Misses identifier failures,
// the caching model's miss event; Reloads are allocations into a slot
// that has held an object before, descriptor state regenerated after an
// eviction or crash. The mapping cache has no lookups of its own: by
// the paper's design the loaded mappings back the translation hardware,
// so its hits are TLBHits and its misses are Stats.Faults.
type Counters struct {
	Stats

	KernelLoaded, KernelCapacity, KernelHits, KernelMisses, KernelReloads uint64
	SpaceLoaded, SpaceCapacity, SpaceHits, SpaceMisses, SpaceReloads      uint64
	ThreadLoaded, ThreadCapacity, ThreadHits, ThreadMisses, ThreadReloads uint64
	MappingLoaded, MappingCapacity, MappingReloads                        uint64

	// TLBHits and TLBMisses are summed over the MPM's processors.
	TLBHits, TLBMisses uint64
	L2Hits, L2Misses   uint64
}

// Counters returns the instance's counter view. It only copies: it
// charges no virtual time, moves no counter and allocates nothing.
func (k *Kernel) Counters() Counters {
	c := Counters{
		Stats:           k.Stats,
		KernelLoaded:    uint64(k.kernels.Loaded()),
		KernelCapacity:  uint64(k.kernels.Capacity()),
		KernelHits:      k.kernels.Hits,
		KernelMisses:    k.kernels.Misses,
		KernelReloads:   k.kernels.Reloads,
		SpaceLoaded:     uint64(k.spaces.Loaded()),
		SpaceCapacity:   uint64(k.spaces.Capacity()),
		SpaceHits:       k.spaces.Hits,
		SpaceMisses:     k.spaces.Misses,
		SpaceReloads:    k.spaces.Reloads,
		ThreadLoaded:    uint64(k.threads.Loaded()),
		ThreadCapacity:  uint64(k.threads.Capacity()),
		ThreadHits:      k.threads.Hits,
		ThreadMisses:    k.threads.Misses,
		ThreadReloads:   k.threads.Reloads,
		MappingLoaded:   uint64(k.pm.Live()),
		MappingCapacity: uint64(k.pm.Capacity()),
		MappingReloads:  k.pm.Reloads,
		L2Hits:          k.MPM.L2.Hits,
		L2Misses:        k.MPM.L2.Misses,
	}
	for _, cpu := range k.MPM.CPUs {
		c.TLBHits += cpu.TLB.Hits
		c.TLBMisses += cpu.TLB.Misses
	}
	return c
}

// LoadScore is the orchestration plane's placement metric for this
// Cache Kernel: descriptor-cache pressure expressed as scaled occupancy
// plus accumulated miss traffic. Lower means a better placement target.
// Integer arithmetic only, so scores compare identically on every host.
func (c Counters) LoadScore() uint64 {
	occ := func(loaded, capacity uint64) uint64 {
		if capacity == 0 {
			return 0
		}
		return loaded * 1000 / capacity
	}
	// Occupancy dominates (a full thread cache means eviction churn for
	// every newcomer); misses break ties between similarly-full MPMs.
	return 4*(occ(c.KernelLoaded, c.KernelCapacity)+occ(c.SpaceLoaded, c.SpaceCapacity)+
		occ(c.ThreadLoaded, c.ThreadCapacity)+occ(c.MappingLoaded, c.MappingCapacity)) +
		(c.KernelMisses + c.SpaceMisses + c.ThreadMisses + c.Faults)
}
