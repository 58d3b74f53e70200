package dsm

import (
	"math"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/chaos"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/srm"
)

// twoNodesArmed is twoNodes with a chaos injector armed on both fiber
// ports before the workload starts.
func twoNodesArmed(t *testing.T, pages uint32, in *chaos.Injector,
	body0, body1 func(n *Node, e *hw.Exec)) (*Node, *Node) {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.MPMs = 2
	m := hw.NewMachine(cfg)
	pa, pb := dev.ConnectFiber(m.MPMs[0], m.MPMs[1], "dsm")
	in.ArmFiber(pa)
	in.ArmFiber(pb)

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

// TestFetchRetryUnderFiberLoss drops every fiber message node 1 sends
// during the first 10 ms — which eats its first page-fetch request —
// and checks that the coherence rpc's timeout/retransmit path repairs
// it: the read still returns the owner's value and the retry counter
// records the loss.
func TestFetchRetryUnderFiberLoss(t *testing.T) {
	const base = 0x6000_0000
	in := chaos.New(chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.DropFrame, Until: hw.CyclesFromMicros(10_000)},
	}})
	var got uint32
	phase := 0
	n0, n1 := twoNodesArmed(t, 2, in,
		func(n *Node, e *hw.Exec) {
			e.Store32(base, 4242)
			phase = 1
			for phase != 2 {
				e.Charge(2000)
			}
		},
		func(n *Node, e *hw.Exec) {
			for phase != 1 {
				e.Charge(2000)
			}
			got = e.Load32(base)
			phase = 2
		})
	if got != 4242 {
		t.Fatalf("read through lossy fiber = %d, want 4242", got)
	}
	if n1.Retries == 0 {
		t.Fatal("no rpc retransmission despite the dropped fetch")
	}
	if in.Stats.FramesDropped == 0 {
		t.Fatal("fault plan dropped nothing")
	}
	if n0.Serves == 0 {
		t.Fatal("owner never served the page")
	}
}
