package srm

import (
	"math"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
)

// startMachine boots a machine with an SRM whose main is fn and runs it
// to quiescence.
func startMachine(t *testing.T, fn func(s *SRM, e *hw.Exec)) (*hw.Machine, *ck.Kernel) {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Start(k, m.MPMs[0], fn); err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(100_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	return m, k
}

func TestSRMLaunchAppKernelWithOwnMemory(t *testing.T) {
	var readBack uint32
	ran := false
	startMachine(t, func(s *SRM, e *hw.Exec) {
		_, err := s.Launch(e, "app", LaunchOpts{Groups: 2, MainPrio: 20}, func(ak *aklib.AppKernel, me *hw.Exec) {
			ran = true
			// The app kernel maps a heap in its own space and uses it;
			// pages fault in on demand through its segment manager via
			// the SRM's forwarding.
			if _, err := ak.Mem.Map(me, "heap", 0x1000_0000, 16, aklib.SegFlags{Writable: true}, nil); err != nil {
				t.Errorf("map heap: %v", err)
				return
			}
			me.Store32(0x1000_0000+8, 4242)
			readBack = me.Load32(0x1000_0000 + 8)
		})
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
	})
	if !ran {
		t.Fatal("app kernel main never ran")
	}
	if readBack != 4242 {
		t.Fatalf("read back %d", readBack)
	}
}

func TestAppKernelRunsUserProcess(t *testing.T) {
	var got uint32
	startMachine(t, func(s *SRM, e *hw.Exec) {
		_, err := s.Launch(e, "app", LaunchOpts{Groups: 2, MainPrio: 20}, func(ak *aklib.AppKernel, me *hw.Exec) {
			k := ak.CK
			// Create a user process: its own space, segment, thread.
			usid, err := k.LoadSpace(me, false)
			if err != nil {
				t.Errorf("user space: %v", err)
				return
			}
			usm := aklib.NewSegmentManager(ak, usid)
			if _, err := usm.Map(me, "data", 0x2000_0000, 8, aklib.SegFlags{Writable: true}, nil); err != nil {
				t.Errorf("user segment: %v", err)
				return
			}
			done := false
			uth := ak.NewThread("user", usid, 15, func(ue *hw.Exec) {
				ue.Store32(0x2000_0000, 99)
				got = ue.Load32(0x2000_0000)
				done = true
			})
			if err := uth.Load(me, false); err != nil {
				t.Errorf("user thread: %v", err)
				return
			}
			for !done {
				me.Charge(2000)
			}
		})
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
	})
	if got != 99 {
		t.Fatalf("user read %d", got)
	}
}

func TestAppKernelDeniedUnauthorizedFrames(t *testing.T) {
	startMachine(t, func(s *SRM, e *hw.Exec) {
		_, err := s.Launch(e, "app", LaunchOpts{Groups: 1, MainPrio: 20}, func(ak *aklib.AppKernel, me *hw.Exec) {
			// Attempt to map a frame outside the granted groups (frame 0
			// belongs to reserved group 0).
			err := ak.CK.LoadMapping(me, ak.SpaceID, ck.MappingSpec{
				VA: 0x3000_0000, PFN: 3, Writable: true,
			})
			if err != ck.ErrAccessDenied {
				t.Errorf("unauthorized mapping: %v, want ErrAccessDenied", err)
			}
		})
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
	})
}

func TestChannelAndRPCBetweenKernels(t *testing.T) {
	var pong []byte
	startMachine(t, func(s *SRM, e *hw.Exec) {
		k := s.CK
		// Shared frames for the two channel directions, from the SRM's
		// own grant; both kernels get access to the group they live in.
		cfg := aklib.ChannelConfig{}
		var reqFrames, respFrames []uint32
		for i := 0; i < cfg.TotalFrames(); i++ {
			f, ok := s.Frames.Alloc()
			if !ok {
				t.Fatal("out of SRM frames")
			}
			reqFrames = append(reqFrames, f)
		}
		for i := 0; i < cfg.TotalFrames(); i++ {
			f, ok := s.Frames.Alloc()
			if !ok {
				t.Fatal("out of SRM frames")
			}
			respFrames = append(respFrames, f)
		}
		grant := func(kid ck.ObjID) {
			for _, f := range append(append([]uint32{}, reqFrames...), respFrames...) {
				if err := k.SetKernelMemoryAccess(e, kid, f/hw.PageGroupPages, 1, true, true); err != nil {
					t.Fatalf("grant: %v", err)
				}
			}
		}

		var req, resp *aklib.Channel
		serverReady := false
		served := false
		lsrv, err := s.Launch(e, "server", LaunchOpts{Groups: 1, MainPrio: 25}, func(ak *aklib.AppKernel, me *hw.Exec) {
			for !serverReady {
				me.Charge(1000)
			}
			srv := aklib.NewRPCServer(ak.CK, req, resp)
			srv.Register(7, func(he *hw.Exec, payload []byte) []byte {
				out := append([]byte("pong:"), payload...)
				return out
			})
			if err := srv.ServeOne(me); err != nil {
				t.Errorf("serve: %v", err)
			}
			served = true
		})
		if err != nil {
			t.Fatalf("launch server: %v", err)
		}
		grant(lsrv.KID)

		clientDone := false
		lcli, err := s.Launch(e, "client", LaunchOpts{Groups: 1, MainPrio: 24}, func(ak *aklib.AppKernel, me *hw.Exec) {
			for req == nil || resp == nil {
				me.Charge(1000)
			}
			conn := &aklib.RPCConn{K: ak.CK, Req: req, Resp: resp}
			reply, err := conn.Call(me, 7, []byte("hi"))
			if err != nil {
				t.Errorf("call: %v", err)
			}
			pong = reply
			clientDone = true
		})
		if err != nil {
			t.Fatalf("launch client: %v", err)
		}
		grant(lcli.KID)

		// Wire the channels: client -> server (signals the server main
		// thread), server -> client (signals the client main thread).
		smCli := lcli.AK.Mem
		smSrv := lsrv.AK.Mem
		req, err = aklib.Connect(e, smCli, 0x4000_0000, smSrv, 0x4000_0000, lsrv.Main.TID, reqFrames, cfg)
		if err != nil {
			t.Fatalf("connect req: %v", err)
		}
		resp, err = aklib.Connect(e, smSrv, 0x4100_0000, smCli, 0x4100_0000, lcli.Main.TID, respFrames, cfg)
		if err != nil {
			t.Fatalf("connect resp: %v", err)
		}
		serverReady = true
		for !served || !clientDone {
			e.Charge(4000)
		}
	})
	if string(pong) != "pong:hi" {
		t.Fatalf("rpc reply = %q", pong)
	}
}

func TestSwapAndUnswap(t *testing.T) {
	counted := 0
	resumed := false
	startMachine(t, func(s *SRM, e *hw.Exec) {
		_, err := s.Launch(e, "app", LaunchOpts{Groups: 1, MainPrio: 20}, func(ak *aklib.AppKernel, me *hw.Exec) {
			if _, err := ak.Mem.Map(me, "heap", 0x1000_0000, 4, aklib.SegFlags{Writable: true}, nil); err != nil {
				t.Errorf("map: %v", err)
				return
			}
			me.Store32(0x1000_0000, 1)
			for i := 0; i < 1000; i++ {
				me.Charge(2000)
				counted++
			}
			// After the swap/unswap cycle the heap must still hold data
			// (frames were retained; mappings refault on demand).
			if me.Load32(0x1000_0000) != 1 {
				t.Error("heap lost across swap")
			}
			resumed = true
		})
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		e.Charge(hw.CyclesFromMicros(4000))
		if err := s.Swap(e, "app"); err != nil {
			t.Fatalf("swap: %v", err)
		}
		frozen := counted
		e.Charge(hw.CyclesFromMicros(20000))
		if counted != frozen {
			t.Errorf("kernel advanced while swapped: %d -> %d", frozen, counted)
		}
		if err := s.Unswap(e, "app"); err != nil {
			t.Fatalf("unswap: %v", err)
		}
	})
	if !resumed {
		t.Fatal("app kernel did not resume after unswap")
	}
}

func TestGroupAllocator(t *testing.T) {
	g := NewGroupAllocator(16 << 20) // 32 groups, group 0 reserved
	if g.Available() != 31 {
		t.Fatalf("available = %d, want 31", g.Available())
	}
	seen := map[uint32]bool{}
	for {
		v, ok := g.Alloc()
		if !ok {
			break
		}
		if v == 0 {
			t.Fatal("allocated reserved group 0")
		}
		if seen[v] {
			t.Fatalf("group %d allocated twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 31 {
		t.Fatalf("allocated %d groups", len(seen))
	}
}

func TestKernelEvictionSwapsAndUnswapRevives(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{KernelSlots: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]*int{"a": new(int), "b": new(int)}
	mkMain := func(name string) func(ak *aklib.AppKernel, e *hw.Exec) {
		return func(ak *aklib.AppKernel, e *hw.Exec) {
			for i := 0; i < 2000; i++ {
				e.Charge(4000)
				*counts[name]++
			}
		}
	}
	_, err = Start(k, m.MPMs[0], func(s *SRM, e *hw.Exec) {
		// NOTE: this body runs in a simulation coroutine; t.Fatalf here
		// would kill the coroutine without yielding and wedge the
		// engine, so failures use Errorf + return.
		la, err := s.Launch(e, "a", LaunchOpts{Groups: 1, MainPrio: 20}, mkMain("a"))
		if err != nil {
			t.Errorf("launch a: %v", err)
			return
		}
		if _, err := s.Launch(e, "b", LaunchOpts{Groups: 1, MainPrio: 20}, mkMain("b")); err != nil {
			t.Errorf("launch b: %v", err)
			return
		}
		e.Charge(hw.CyclesFromMicros(3000))
		// The third launch exceeds the 3-slot kernel cache: the LRU
		// kernel (a) is written back — swapped out by cache pressure,
		// taking its space and running main thread with it.
		if _, err := s.Launch(e, "c", LaunchOpts{Groups: 1, MainPrio: 20},
			func(ak *aklib.AppKernel, me *hw.Exec) { me.Charge(1000) }); err != nil {
			t.Errorf("launch c: %v", err)
			return
		}
		if la.KID != 0 {
			t.Errorf("kernel a not marked swapped after eviction")
			return
		}
		if la.Main.Loaded {
			t.Errorf("a's main thread still loaded after kernel eviction")
			return
		}
		frozen := *counts["a"]
		e.Charge(hw.CyclesFromMicros(20_000))
		if *counts["a"] != frozen {
			t.Errorf("swapped kernel advanced: %d -> %d", frozen, *counts["a"])
			return
		}
		// Revive it; the main thread resumes where it was forced off.
		if err := s.Unswap(e, "a"); err != nil {
			t.Errorf("unswap: %v", err)
			return
		}
		for *counts["a"] <= frozen {
			e.Charge(hw.CyclesFromMicros(2000))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(400_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	// b may itself have been evicted while reviving a (3 slots, 4
	// kernels): a must complete; b completes unless it was the victim.
	if *counts["a"] != 2000 {
		t.Fatalf("main a incomplete: %d", *counts["a"])
	}
	if k.Stats.KernelWritebacks == 0 {
		t.Fatal("no kernel writeback recorded")
	}
}
