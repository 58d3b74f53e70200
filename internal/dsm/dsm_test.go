package dsm

import (
	"math"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/srm"
)

// twoNodes boots two MPMs with their own Cache Kernels and SRMs, runs
// body0/body1 as launched application kernels sharing a DSM region, and
// drives the machine to quiescence.
func twoNodes(t *testing.T, pages uint32,
	body0, body1 func(n *Node, e *hw.Exec)) (*Node, *Node) {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.MPMs = 2
	m := hw.NewMachine(cfg)
	pa, pb := dev.ConnectFiber(m.MPMs[0], m.MPMs[1], "dsm")

	var nodes [2]*Node
	ready := [2]bool{}
	mk := func(idx int, mpm *hw.MPM, port *dev.FiberPort, body func(*Node, *hw.Exec)) {
		k, err := ck.New(mpm, ck.Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = srm.Start(k, mpm, func(s *srm.SRM, e *hw.Exec) {
			_, err := s.Launch(e, "dsmk", srm.LaunchOpts{Groups: 4, MainPrio: 26},
				func(ak *aklib.AppKernel, me *hw.Exec) {
					n, err := Attach(me, ak, port, idx, 0x6000_0000, pages)
					if err != nil {
						t.Errorf("attach %d: %v", idx, err)
						return
					}
					nodes[idx] = n
					ready[idx] = true
					for !ready[0] || !ready[1] {
						me.Charge(2000)
					}
					body(n, me)
				})
			if err != nil {
				t.Errorf("launch %d: %v", idx, err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mk(0, m.MPMs[0], pa, body0)
	mk(1, m.MPMs[1], pb, body1)

	m.SetMaxSteps(500_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	return nodes[0], nodes[1]
}

func TestReadSharingAndWriteInvalidation(t *testing.T) {
	const base = 0x6000_0000
	var readByN1, readBackByN0 uint32
	phase := 0
	n0, n1 := twoNodes(t, 4,
		func(n *Node, e *hw.Exec) {
			// Node 0 owns everything initially: write a value.
			e.Store32(base, 4242)
			phase = 1
			// Wait for node 1 to overwrite it, then read it back
			// (fetching the page back).
			for phase != 2 {
				e.Charge(2000)
			}
			readBackByN0 = e.Load32(base)
			phase = 3
		},
		func(n *Node, e *hw.Exec) {
			for phase != 1 {
				e.Charge(2000)
			}
			// Read: fetches a shared copy from node 0.
			readByN1 = e.Load32(base)
			// Write: upgrades, invalidating node 0's copy.
			e.Store32(base, 9999)
			phase = 2
			for phase != 3 {
				e.Charge(2000)
			}
		})
	if readByN1 != 4242 {
		t.Fatalf("node 1 read %d, want 4242", readByN1)
	}
	if readBackByN0 != 9999 {
		t.Fatalf("node 0 read back %d, want 9999", readBackByN0)
	}
	if n1.Fetches == 0 {
		t.Fatal("node 1 never fetched")
	}
	if n1.Upgrades == 0 {
		t.Fatal("node 1 never upgraded")
	}
	if n0.Invalidations == 0 {
		t.Fatal("node 0 was never invalidated")
	}
	_ = n0
}

func TestPingPongCounter(t *testing.T) {
	const base = 0x6000_0000
	const rounds = 6
	// The two nodes alternately increment a shared counter; strict
	// alternation is enforced by the counter's parity, so every
	// increment migrates the page.
	inc := func(parity uint32) func(n *Node, e *hw.Exec) {
		return func(n *Node, e *hw.Exec) {
			done := 0
			for done < rounds {
				v := e.Load32(base)
				if v%2 != parity {
					e.Charge(4000)
					continue
				}
				e.Store32(base, v+1)
				done++
			}
		}
	}
	n0, n1 := twoNodes(t, 1, inc(0), inc(1))
	// Final value: 2*rounds increments.
	// Read it from whichever node can (node 0).
	if total := n0.Fetches + n1.Fetches; total < rounds {
		t.Fatalf("only %d fetches for %d migrations", total, 2*rounds)
	}
	if n0.Serves == 0 || n1.Serves == 0 {
		t.Fatalf("serves: %d/%d", n0.Serves, n1.Serves)
	}
}

func TestDisjointPagesDontInterfere(t *testing.T) {
	const base = 0x6000_0000
	var ok0, ok1 bool
	twoNodes(t, 2,
		func(n *Node, e *hw.Exec) {
			for i := 0; i < 20; i++ {
				e.Store32(base, uint32(i))
			}
			ok0 = e.Load32(base) == 19
		},
		func(n *Node, e *hw.Exec) {
			for i := 0; i < 20; i++ {
				e.Store32(base+hw.PageSize, uint32(100+i))
			}
			ok1 = e.Load32(base+hw.PageSize) == 119
		})
	if !ok0 || !ok1 {
		t.Fatalf("independent pages corrupted: %v %v", ok0, ok1)
	}
}

func TestCrossingWriteRequestsResolve(t *testing.T) {
	const base = 0x6000_0000
	// Both nodes hammer the same page with writes at the same time; the
	// deferral tie-break must resolve every crossing without timeout.
	var sum0, sum1 int
	twoNodes(t, 1,
		func(n *Node, e *hw.Exec) {
			for i := 0; i < 10; i++ {
				e.Store32(base, uint32(i))
				sum0++
				e.Charge(1000)
			}
		},
		func(n *Node, e *hw.Exec) {
			for i := 0; i < 10; i++ {
				e.Store32(base+4, uint32(i))
				sum1++
				e.Charge(1000)
			}
		})
	if sum0 != 10 || sum1 != 10 {
		t.Fatalf("writers stalled: %d/%d", sum0, sum1)
	}
}
