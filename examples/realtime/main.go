// A real-time kernel with locked objects (paper §3, §4.2).
//
// The real-time kernel is launched locked: its kernel object, address
// space, control-state mappings and task thread are pinned in the Cache
// Kernel, so reclamation driven by another kernel's churn can never
// write them back. A periodic control task then meets its activation
// deadlines with and without heavy background pressure.
//
//	go run ./examples/realtime
package main

import (
	"fmt"
	"log"
	"math"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/rtk"
	"vpp/internal/srm"
)

func run(pressure bool) rtk.TaskStats {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{MappingSlots: 64, PMapBuckets: 64})
	if err != nil {
		log.Fatal(err)
	}
	var stats rtk.TaskStats
	stop := false
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		if pressure {
			s.Launch(e, "churn", srm.LaunchOpts{Groups: 8, MainPrio: 20, MaxPrio: 22},
				func(ak *aklib.AppKernel, me *hw.Exec) {
					va := uint32(0x5000_0000)
					for i := 0; !stop; i++ {
						pfn, ok := ak.Frames.Alloc()
						if !ok {
							break
						}
						ak.CK.LoadMapping(me, ak.SpaceID, ck.MappingSpec{
							VA: va + uint32(i%512)*hw.PageSize, PFN: pfn, Writable: true,
						})
						ak.Frames.Free(pfn)
						me.Charge(2000)
					}
				})
		}
		s.Launch(e, "rt", srm.LaunchOpts{Groups: 2, MainPrio: 30, Locked: true},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				rt, err := rtk.New(me, ak, 2)
				if err != nil {
					log.Fatal(err)
				}
				stats, err = rt.RunTask(me, rtk.TaskConfig{
					Name: "control", PeriodUS: 2000, BudgetCycles: 5000,
					Activations: 25, Priority: 45,
				})
				if err != nil {
					log.Fatal(err)
				}
				stop = true
			})
	})
	if err != nil {
		log.Fatal(err)
	}
	m.SetMaxSteps(1_000_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		log.Fatal(err)
	}
	return stats
}

func main() {
	fmt.Println("periodic control task: 2 ms period, 25 activations, priority 45, locked objects")
	quiet := run(false)
	loaded := run(true)
	fmt.Printf("\n%-22s %10s %10s %8s\n", "", "mean (µs)", "max (µs)", "missed")
	fmt.Printf("%-22s %10.1f %10.1f %8d\n", "idle machine", quiet.MeanLatencyUS(), quiet.MaxLatencyUS, quiet.MissedPeriods)
	fmt.Printf("%-22s %10.1f %10.1f %8d\n", "mapping-churn pressure", loaded.MeanLatencyUS(), loaded.MaxLatencyUS, loaded.MissedPeriods)
	fmt.Println("\nlocked objects keep the task's descriptors out of reach of")
	fmt.Println("reclamation, so activation latency stays bounded under pressure")
}
