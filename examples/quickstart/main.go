// Quickstart: the smallest complete Cache Kernel program.
//
// It builds a simulated ParaDiGM machine, boots a Cache Kernel with a
// system resource manager as the first application kernel, and then —
// from the SRM's initial thread — exercises the core of the caching
// model: loading an address space, demand-loading page mappings through
// the fault path, loading a second thread, and explicitly unloading the
// space to watch the dependents come back through the writeback channel.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/srm"
)

func main() {
	// A machine with the paper's geometry: one MPM, four 25 MHz CPUs,
	// 2 MB local RAM, 8 MB second-level cache. Close ends it: threads
	// still parked when the run is over are released.
	machine := hw.NewMachine(hw.DefaultConfig())
	defer machine.Close()

	// The Cache Kernel installs itself as the MPM's supervisor.
	kernel, err := ck.New(machine.MPMs[0], ck.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Boot: the SRM is the first application kernel; main runs as its
	// initial thread once the machine starts.
	_, err = srm.Start(kernel, machine.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		k := s.CK

		// 1. Touching unmapped memory faults into the Cache Kernel,
		//    which forwards to the owning kernel's handler; the default
		//    aklib handler demand-loads pages from the SRM's frames.
		s.Mem.Map(e, "heap", 0x1000_0000, 16, aklib.SegFlags{Writable: true}, nil)
		e.Store32(0x1000_0000, 42)
		fmt.Printf("demand-paged store: read back %d (faults so far: %d)\n",
			e.Load32(0x1000_0000), k.Stats.Faults)

		// 2. Load a fresh address space and map a page into it
		//    explicitly — the application kernel controls the physical
		//    frame, so it controls placement and replacement policy.
		sid, err := k.LoadSpace(e, false)
		if err != nil {
			log.Fatal(err)
		}
		pfn, _ := s.Frames.Alloc()
		if err := k.LoadMapping(e, sid, ck.MappingSpec{
			VA: 0x2000_0000, PFN: pfn, Writable: true, Cachable: true,
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded space %v with one explicit mapping\n", sid)

		// 3. A second thread in that space, communicating by signal.
		done := false
		th := s.NewThread("worker", sid, 25, func(we *hw.Exec) {
			v, _ := k.WaitSignal(we)
			we.Store32(0x2000_0000, v)
			done = true
		})
		if err := th.Load(e, false); err != nil {
			log.Fatal(err)
		}
		if err := th.Signal(e, 1234); err != nil {
			log.Fatal(err)
		}
		for !done {
			e.Charge(2000)
		}
		fmt.Printf("worker stored the signalled value: %d\n",
			machine.Phys.Read32(pfn<<hw.PageShift))

		// 4. Unload the space: its thread and mapping are written back
		//    first (Figure 6's dependency order), then the descriptor.
		s.OnMappingWB = func(st ck.MappingState) {
			fmt.Printf("writeback: mapping va=%#x modified=%v\n", st.VA, st.Modified)
		}
		s.OnThreadWB = func(id ck.ObjID, _ ck.ThreadState) {
			fmt.Printf("writeback: thread %v\n", id)
		}
		if err := k.UnloadSpace(e, sid); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("space unloaded; identifiers change on every reload\n")
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := machine.Run(math.MaxUint64); err != nil {
		log.Fatal(err)
	}
}
