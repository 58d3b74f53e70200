package srm

import (
	"math"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
)

// TestDistributedSRMLoadReportsAndRemoteLaunch boots two MPMs, each with
// its own Cache Kernel and SRM, connected by a fiber channel. SRM 0
// queries SRM 1's load, then launches a registered service there.
func TestDistributedSRMLoadReportsAndRemoteLaunch(t *testing.T) {
	cfg := hw.DefaultConfig()
	cfg.MPMs = 2
	m := hw.NewMachine(cfg)
	pa, pb := dev.ConnectFiber(m.MPMs[0], m.MPMs[1], "srm-link")

	k0, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k1, err := ck.New(m.MPMs[1], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}

	remoteRan := false
	var link1 *PeerLink
	ready1 := false
	_, err = Start(k1, m.MPMs[1], func(s *SRM, e *hw.Exec) {
		var err error
		link1, err = s.ConnectPeer(e, pb)
		if err != nil {
			t.Errorf("connect peer 1: %v", err)
			return
		}
		link1.RegisterService("analytics", LaunchOpts{Groups: 2, MainPrio: 22},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				me.Charge(hw.CyclesFromMicros(200))
				remoteRan = true
			})
		ready1 = true
	})
	if err != nil {
		t.Fatal(err)
	}

	var gotLoad LoadReport
	var loadOK bool
	var launchErr error
	_, err = Start(k0, m.MPMs[0], func(s *SRM, e *hw.Exec) {
		link0, err := s.ConnectPeer(e, pa)
		if err != nil {
			t.Errorf("connect peer 0: %v", err)
			return
		}
		for !ready1 {
			e.Charge(2000)
		}
		gotLoad, loadOK = link0.QueryPeerLoad(e)
		launchErr = link0.RemoteLaunch(e, "analytics")
		if err := link0.RemoteLaunch(e, "no-such-service"); err == nil {
			t.Error("launch of unregistered service succeeded")
		}
		for !remoteRan {
			e.Charge(2000)
		}
		link0.Stop(e)
		link1.Stop(e)
	})
	if err != nil {
		t.Fatal(err)
	}

	m.SetMaxSteps(200_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if !loadOK {
		t.Fatal("no load report received")
	}
	if gotLoad.LoadedThreads == 0 {
		t.Fatalf("peer reported %d loaded threads", gotLoad.LoadedThreads)
	}
	if launchErr != nil {
		t.Fatalf("remote launch: %v", launchErr)
	}
	if !remoteRan {
		t.Fatal("remote service never ran")
	}
	if link1.Served != 1 {
		t.Fatalf("peer served %d launches", link1.Served)
	}
	// The remote kernel ran on MPM 1's Cache Kernel, not MPM 0's.
	if k1.Stats.KernelLoads < 2 {
		t.Fatalf("MPM1 kernel loads = %d, want >= 2 (SRM + analytics)", k1.Stats.KernelLoads)
	}
}

// TestMPMFaultContainment: killing every execution of one MPM leaves the
// other MPM's Cache Kernel fully operational (the replication rationale).
func TestMPMFaultContainment(t *testing.T) {
	cfg := hw.DefaultConfig()
	cfg.MPMs = 2
	m := hw.NewMachine(cfg)
	k0, _ := ck.New(m.MPMs[0], ck.Config{})
	k1, _ := ck.New(m.MPMs[1], ck.Config{})

	// MPM 0's SRM "fails" (its boot thread just stops).
	_, err := Start(k0, m.MPMs[0], func(s *SRM, e *hw.Exec) {
		e.Charge(1000)
		// Simulated MPM failure: the kernel simply stops making progress.
	})
	if err != nil {
		t.Fatal(err)
	}
	survived := false
	_, err = Start(k1, m.MPMs[1], func(s *SRM, e *hw.Exec) {
		e.Charge(hw.CyclesFromMicros(5000)) // well past MPM 0's demise
		sid, err := s.CK.LoadSpace(e, false)
		if err != nil {
			t.Errorf("survivor LoadSpace: %v", err)
			return
		}
		pfn, _ := s.Frames.Alloc()
		if err := s.CK.LoadMapping(e, sid, ck.MappingSpec{VA: 0x1000_0000, PFN: pfn, Writable: true}); err != nil {
			t.Errorf("survivor LoadMapping: %v", err)
			return
		}
		survived = true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if !survived {
		t.Fatal("surviving MPM could not operate")
	}
}
