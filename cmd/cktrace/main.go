// Command cktrace narrates the paper's figures by running their
// scenarios on the simulator and printing the Cache Kernel's event
// trace:
//
//	-demo pagefault   Figure 2: the six-step page fault path
//	-demo messaging   Figure 3: memory-based messaging, one sender and
//	                  two receivers
//	-demo paradigm    Figure 4: a multi-MPM machine, one Cache Kernel
//	                  instance per MPM
//	-demo writeback   Figure 6: dependency-ordered writeback when an
//	                  address space is evicted
//	-demo recovery    §3: a scripted Cache Kernel crash, detected and
//	                  repaired by reloading from application kernels
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"vpp/internal/aklib"
	"vpp/internal/chaos"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/srm"
)

func main() {
	demo := flag.String("demo", "pagefault", "pagefault | messaging | paradigm | writeback | recovery")
	flag.Parse()
	switch *demo {
	case "pagefault":
		pagefault()
	case "messaging":
		messaging()
	case "paradigm":
		paradigm()
	case "writeback":
		writeback()
	case "recovery":
		recovery()
	default:
		fmt.Fprintf(os.Stderr, "unknown demo %q\n", *demo)
		os.Exit(2)
	}
}

// boot builds a machine with a traced Cache Kernel and runs main as the
// SRM.
func boot(main func(s *srm.SRM, e *hw.Exec)) {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	k.Observe(narrate)
	if _, err := srm.Start(k, m.MPMs[0], main); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m.SetMaxSteps(100_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// narrate prints one Cache Kernel event; dispatches are too frequent to
// narrate.
func narrate(ev ck.Event) {
	if ev.Kind != ck.EvDispatch {
		fmt.Printf("%10.1fµs  %-16s %s\n", float64(ev.At)/hw.CyclesPerMicrosecond, ev.Kind, ev.Detail())
	}
}

func pagefault() {
	fmt.Println("Figure 2: page fault handling (6 steps)")
	fmt.Println("  1-2: hardware traps to the Cache Kernel access error handler,")
	fmt.Println("       which forwards the thread to its application kernel's handler")
	fmt.Println("  3-4: the handler picks a frame and loads a new mapping")
	fmt.Println("  5-6: the combined call completes the exception and resumes")
	fmt.Println()
	boot(func(s *srm.SRM, e *hw.Exec) {
		// A store to an unmapped heap page in the SRM's own space.
		pfn, _ := s.Frames.Alloc()
		s.OnFault = func(fe *hw.Exec, th, space ck.ObjID, va uint32, write bool, kind hw.Fault) (bool, bool) {
			err := s.CK.LoadMappingAndResume(fe, space, ck.MappingSpec{
				VA: va &^ (hw.PageSize - 1), PFN: pfn, Writable: true, Cachable: true,
			})
			return true, err == nil
		}
		e.Store32(0x1000_0000, 42)
		fmt.Printf("\nstore completed; read back %d\n", e.Load32(0x1000_0000))
	})
}

func messaging() {
	fmt.Println("Figure 3: memory-based messaging (one sender, two receivers)")
	fmt.Println()
	boot(func(s *srm.SRM, e *hw.Exec) {
		k := s.CK
		pfn, _ := s.Frames.Alloc()
		got := 0
		for i := 0; i < 2; i++ {
			i := i
			recvVA := uint32(0x5000_0000 + i*0x100_0000)
			rth := s.NewThread(fmt.Sprintf("recv%d", i), s.SpaceID, 35, func(re *hw.Exec) {
				v, err := k.WaitSignal(re)
				if err != nil {
					return
				}
				fmt.Printf("receiver %d got address-valued signal %#x (its own mapping of the message)\n", i, v)
				k.SignalReturn(re)
				got++
			})
			if err := rth.Load(e, false); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			if err := k.LoadMapping(e, s.SpaceID, ck.MappingSpec{
				VA: recvVA, PFN: pfn, Message: true, SignalThread: rth.TID,
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
		}
		if err := k.LoadMapping(e, s.SpaceID, ck.MappingSpec{
			VA: 0x6000_0000, PFN: pfn, Writable: true, Message: true,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		e.Charge(hw.CyclesFromMicros(500))
		fmt.Println("sender writes the message word:")
		e.Store32(0x6000_0000+0x40, 7)
		for got < 2 {
			e.Charge(2000)
		}
	})
}

func paradigm() {
	fmt.Println("Figure 4: ParaDiGM architecture — one Cache Kernel per MPM")
	fmt.Println()
	cfg := hw.DefaultConfig()
	cfg.MPMs = 3
	m := hw.NewMachine(cfg)
	for i, mpm := range m.MPMs {
		k, err := ck.New(mpm, ck.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		i := i
		if _, err := srm.Start(k, mpm, func(s *srm.SRM, e *hw.Exec) {
			e.Charge(hw.CyclesFromMicros(100))
			fmt.Printf("MPM %d: Cache Kernel booted, SRM running (kernel %v), %d CPUs, %d KB local RAM free\n",
				i, s.ID, len(mpm.CPUs), (mpm.LocalRAM.Size()-mpm.LocalRAM.Used())/1024)
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	m.SetMaxSteps(10_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("\neach MPM runs its own Cache Kernel instance: a fault in one")
	fmt.Println("MPM's kernel cannot corrupt another's state (fault containment)")
}

func writeback() {
	fmt.Println("Figure 6: dependency-ordered writeback")
	fmt.Println("evicting an address space writes back its threads and mappings first")
	fmt.Println()
	boot(func(s *srm.SRM, e *hw.Exec) {
		k := s.CK
		s.OnMappingWB = func(st ck.MappingState) {
			fmt.Printf("  writeback: mapping va=%#x of %v (referenced=%v modified=%v)\n",
				st.VA, st.Space, st.Referenced, st.Modified)
		}
		s.OnThreadWB = func(id ck.ObjID, st ck.ThreadState) {
			fmt.Printf("  writeback: thread %v (priority %d)\n", id, st.Priority)
		}
		s.OnSpaceWB = func(id ck.ObjID) {
			fmt.Printf("  writeback: space %v (last: all dependents already out)\n", id)
		}
		sid, err := k.LoadSpace(e, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		th := s.NewThread("victim-thread", sid, 20, func(we *hw.Exec) {
			_, _ = k.WaitSignal(we)
		})
		_ = th.Load(e, false)
		for i := uint32(0); i < 3; i++ {
			pfn, _ := s.Frames.Alloc()
			_ = k.LoadMapping(e, sid, ck.MappingSpec{VA: 0x2000_0000 + i*hw.PageSize, PFN: pfn, Writable: true})
		}
		e.Charge(hw.CyclesFromMicros(500))
		fmt.Printf("explicitly unloading space %v:\n", sid)
		if err := k.UnloadSpace(e, sid); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	})
}

func recovery() {
	const (
		crashUS   = 8_000
		horizonUS = 60_000
	)
	fmt.Println("§3: Cache Kernel crash and recovery (state caching makes the kernel regenerable)")
	fmt.Println("  1: a scheduled fault crash-reboots the Cache Kernel at 8 ms — caches")
	fmt.Println("     wiped, on-CPU contexts killed, every pre-crash identifier invalidated")
	fmt.Println("  2: the SRM guardian (a device engine that survives the reset) probes its")
	fmt.Println("     kernel handle every 250 µs and notices it no longer validates")
	fmt.Println("  3: the guardian drains the CPUs and re-boots the SRM as first kernel")
	fmt.Println("  4: each launched kernel is unswapped — its descriptors reload from")
	fmt.Println("     application-kernel memory, the truth the crash never touched")
	fmt.Println("  5: main threads whose contexts died are revived from their bodies")
	fmt.Println("  6: the first non-system dispatch resumes application work; the crash")
	fmt.Println("     cost latency, not state")
	fmt.Println()

	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Trace only around the crash window so the walkthrough stays
	// readable: armed just before the fault, retired once recovery is
	// reported.
	tracing := false
	k.Observe(func(ev ck.Event) {
		if tracing {
			narrate(ev)
		}
	})
	in := chaos.New(chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.CrashKernel, At: hw.CyclesFromMicros(crashUS), MPM: 0},
	}})
	in.Arm(m, k)
	m.MPMs[0].Shard.ScheduleAt(hw.CyclesFromMicros(crashUS)-1, func() {
		fmt.Println("--- kernel trace (crash window) ---")
		tracing = true
	})

	us := func(cyc uint64) float64 { return float64(cyc) / hw.CyclesPerMicrosecond }
	step := 0
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		// The app's main spans the crash; its loop counter lives in
		// application-kernel state, so the revived main resumes where
		// the dead context left off.
		_, err := s.Launch(e, "app", srm.LaunchOpts{Groups: 4, MainPrio: 30},
			func(ak *aklib.AppKernel, ae *hw.Exec) {
				for step < 20 {
					ae.Charge(hw.CyclesFromMicros(1000))
					step++
				}
				fmt.Printf("%10.1fµs  app: 20 ms of work done — %d ms survived the crash\n",
					us(ae.Now()), crashUS/1000)
			})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		s.Guard(srm.GuardConfig{
			Interval: hw.CyclesFromMicros(250),
			Until:    hw.CyclesFromMicros(horizonUS),
			OnRecovered: func(r *srm.RecoveryReport) {
				tracing = false
				fmt.Println("--- recovery report ---")
				fmt.Printf("detected     %10.1fµs  (+%.1fµs after the crash)\n", us(r.DetectAt), us(r.DetectAt)-crashUS)
				fmt.Printf("rebooted     %10.1fµs\n", us(r.RebootAt))
				fmt.Printf("reloaded     %10.1fµs  (%d kernel(s), %d main(s) revived)\n", us(r.ReloadAt), r.Kernels, r.Revived)
				fmt.Printf("app resumed  %10.1fµs\n", us(r.FirstResume))
				if r.Err != nil {
					fmt.Printf("reload error: %v\n", r.Err)
				}
			},
		})
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m.SetMaxSteps(100_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nfinal virtual clock %.1f ms; Cache Kernel epoch %d; crashes injected %d\n",
		float64(m.MPMs[0].Shard.Now())/hw.CyclesPerMicrosecond/1000, k.Epoch, in.Stats.Crashes)
}
