package ck

import "fmt"

// CacheStat is one descriptor cache's observability counters: occupancy
// plus the caching model's four protocol events. Hits and misses count
// generation-validated identifier lookups (a miss is the model's
// "identifier failure"); loads/unloads/writebacks come from the kernel
// call accounting; reloads count allocations into previously-used slots
// — descriptor state regenerated into the cache after an earlier
// eviction or crash. All values derive only from simulation events, so
// they are byte-reproducible for a given seed.
type CacheStat struct {
	Name     string
	Capacity int
	Loaded   int
	Hits     uint64
	Misses   uint64
	Loads    uint64
	Unloads  uint64
	Wbacks   uint64
	Reloads  uint64
}

// Occupancy is Loaded/Capacity in [0,1].
func (s CacheStat) Occupancy() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return float64(s.Loaded) / float64(s.Capacity)
}

// String renders one cache's counters on a single line.
func (s CacheStat) String() string {
	return fmt.Sprintf("%s %d/%d loaded, %d hits / %d misses, %d loads / %d unloads / %d wb / %d reloads",
		s.Name, s.Loaded, s.Capacity, s.Hits, s.Misses, s.Loads, s.Unloads, s.Wbacks, s.Reloads)
}

// CacheCounters is the per-descriptor-cache view of one Cache Kernel
// instance — the first slice of the cache-observability roadmap item.
// The orchestration plane's placement score reads it, and `ckbench -exp
// t2` prints it alongside the paper table.
type CacheCounters struct {
	Kernels  CacheStat
	Spaces   CacheStat
	Threads  CacheStat
	Mappings CacheStat
}

// CacheCounters snapshots the per-cache counters. Mapping-cache hits
// are hardware translations (TLB hits summed over the MPM's
// processors): by the paper's design the loaded mapping cache *is* the
// translation hardware's backing store, so a TLB hit is the mapping
// cache's fast path and a page fault is its miss.
func (k *Kernel) CacheCounters() CacheCounters {
	var c CacheCounters
	c.Kernels = CacheStat{
		Name: "kernels", Capacity: k.kernels.Capacity(), Loaded: k.kernels.Loaded(),
		Hits: k.kernels.hits, Misses: k.kernels.misses, Reloads: k.kernels.reloads,
		Loads: k.Stats.KernelLoads, Unloads: k.Stats.KernelUnloads, Wbacks: k.Stats.KernelWritebacks,
	}
	c.Spaces = CacheStat{
		Name: "spaces", Capacity: k.spaces.Capacity(), Loaded: k.spaces.Loaded(),
		Hits: k.spaces.hits, Misses: k.spaces.misses, Reloads: k.spaces.reloads,
		Loads: k.Stats.SpaceLoads, Unloads: k.Stats.SpaceUnloads, Wbacks: k.Stats.SpaceWritebacks,
	}
	c.Threads = CacheStat{
		Name: "threads", Capacity: k.threads.Capacity(), Loaded: k.threads.Loaded(),
		Hits: k.threads.hits, Misses: k.threads.misses, Reloads: k.threads.reloads,
		Loads: k.Stats.ThreadLoads, Unloads: k.Stats.ThreadUnloads, Wbacks: k.Stats.ThreadWritebacks,
	}
	var tlbHits uint64
	for _, cpu := range k.MPM.CPUs {
		h, _ := cpu.TLB.Stats()
		tlbHits += h
	}
	c.Mappings = CacheStat{
		Name: "mappings", Capacity: k.pm.Capacity(), Loaded: k.pm.Live(),
		Hits: tlbHits, Misses: k.Stats.Faults, Reloads: k.pm.reloads,
		Loads: k.Stats.MappingLoads, Unloads: k.Stats.MappingUnloads, Wbacks: k.Stats.MappingWritebacks,
	}
	return c
}

// LoadScore is the orchestration plane's placement metric for this
// Cache Kernel: descriptor-cache pressure expressed as scaled occupancy
// plus accumulated miss traffic. Lower means a better placement target.
// Integer arithmetic only, so scores compare identically on every host.
func (c CacheCounters) LoadScore() uint64 {
	occ := func(s CacheStat) uint64 {
		if s.Capacity == 0 {
			return 0
		}
		return uint64(s.Loaded) * 1000 / uint64(s.Capacity)
	}
	// Occupancy dominates (a full thread cache means eviction churn for
	// every newcomer); misses break ties between similarly-full MPMs.
	return 4*(occ(c.Kernels)+occ(c.Spaces)+occ(c.Threads)+occ(c.Mappings)) +
		(c.Kernels.Misses + c.Spaces.Misses + c.Threads.Misses + c.Mappings.Misses)
}
