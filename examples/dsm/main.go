// Distributed shared memory across two MPMs — the "explicit
// coordination between kernels ... provided by higher-level software"
// of paper §3.
//
// Two application kernels on separate MPMs (each with its own Cache
// Kernel) share a region of pages. Misses and write upgrades arrive as
// forwarded faults; an IVY-style single-writer protocol migrates pages
// over the fiber channel. The Cache Kernel contributes only its
// caching-model primitives: fault forwarding, mapping load/unload, and
// signals.
//
//	go run ./examples/dsm
package main

import (
	"fmt"
	"log"
	"math"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/dsm"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/srm"
)

func main() {
	cfg := hw.DefaultConfig()
	cfg.MPMs = 2
	m := hw.NewMachine(cfg)
	pa, pb := dev.ConnectFiber(m.MPMs[0], m.MPMs[1], "dsm")

	const base = 0x6000_0000
	const rounds = 5
	var nodes [2]*dsm.Node
	ready := [2]bool{}
	phase := 0

	mk := func(idx int, mpm *hw.MPM, port *dev.FiberPort, body func(n *dsm.Node, e *hw.Exec)) {
		k, err := ck.New(mpm, ck.Config{})
		if err != nil {
			log.Fatal(err)
		}
		_, err = srm.Start(k, mpm, func(s *srm.SRM, e *hw.Exec) {
			_, err := s.Launch(e, "dsmk", srm.LaunchOpts{Groups: 4, MainPrio: 26},
				func(ak *aklib.AppKernel, me *hw.Exec) {
					n, err := dsm.Attach(me, ak, port, idx, base, 2)
					if err != nil {
						log.Fatal(err)
					}
					nodes[idx] = n
					ready[idx] = true
					for !ready[0] || !ready[1] {
						me.Charge(2000)
					}
					body(n, me)
				})
			if err != nil {
				log.Fatal(err)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	mk(0, m.MPMs[0], pa, func(n *dsm.Node, e *hw.Exec) {
		for i := 0; i < rounds; i++ {
			for phase != 2*i {
				e.Charge(2000)
			}
			v := e.Load32(base)
			e.Store32(base, v+1)
			fmt.Printf("node 0: counter %d -> %d (page %s here)\n", v, v+1, n.PageState(0))
			phase++
		}
	})
	mk(1, m.MPMs[1], pb, func(n *dsm.Node, e *hw.Exec) {
		for i := 0; i < rounds; i++ {
			for phase != 2*i+1 {
				e.Charge(2000)
			}
			v := e.Load32(base)
			e.Store32(base, v+10)
			fmt.Printf("node 1: counter %d -> %d (page %s here)\n", v, v+10, n.PageState(0))
			phase++
		}
	})

	m.SetMaxSteps(500_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal counter: expected %d\n", rounds*11)
	fmt.Printf("node 0: %d fetches, %d upgrades, %d invalidations, %d serves\n",
		nodes[0].Fetches, nodes[0].Upgrades, nodes[0].Invalidations, nodes[0].Serves)
	fmt.Printf("node 1: %d fetches, %d upgrades, %d invalidations, %d serves\n",
		nodes[1].Fetches, nodes[1].Upgrades, nodes[1].Invalidations, nodes[1].Serves)
}
