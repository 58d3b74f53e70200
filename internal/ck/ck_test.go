package ck

import (
	"testing"

	"vpp/internal/hw"
)

func TestBootRunsFirstKernelThread(t *testing.T) {
	ran := false
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		ran = true
		if env.k.FirstKernel() == 0 {
			t.Error("no first kernel")
		}
	})
	env.run()
	if !ran {
		t.Fatal("boot body did not run")
	}
}

func TestDemandPagingThroughFaultHandler(t *testing.T) {
	var got uint32
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		// The SRM space starts with no mappings: the first store faults,
		// the fault handler loads an identity mapping, the store retries.
		e.Store32(0x0040_0000, 0xdeadbeef)
		got = e.Load32(0x0040_0000)
	})
	env.run()
	if got != 0xdeadbeef {
		t.Fatalf("read back %#x", got)
	}
	if env.k.Stats.Faults == 0 {
		t.Fatal("no faults recorded")
	}
	if env.k.Stats.MappingLoads == 0 {
		t.Fatal("no mapping loads recorded")
	}
}

func TestMappingLoadUnloadReturnsRMBits(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		sid := env.boot.Space
		pfn := env.frame()
		va := uint32(0x1000_0000)
		env.mustMap(e, sid, MappingSpec{VA: va, PFN: pfn, Writable: true, Cachable: true})
		e.Store32(va+4, 42)
		st, err := k.UnloadMapping(e, sid, va)
		if err != nil {
			t.Fatalf("UnloadMapping: %v", err)
		}
		if !st.Referenced || !st.Modified {
			t.Errorf("R/M bits = %v/%v, want true/true", st.Referenced, st.Modified)
		}
		if st.PFN != pfn {
			t.Errorf("PFN = %d, want %d", st.PFN, pfn)
		}
		// Read-only touch sets only the referenced bit.
		env.mustMap(e, sid, MappingSpec{VA: va, PFN: pfn, Writable: true, Cachable: true})
		_ = e.Load32(va)
		st, err = k.UnloadMapping(e, sid, va)
		if err != nil {
			t.Fatalf("UnloadMapping 2: %v", err)
		}
		if !st.Referenced || st.Modified {
			t.Errorf("after read R/M = %v/%v, want true/false", st.Referenced, st.Modified)
		}
	})
	env.run()
}

func TestMappingReplacementWritesBack(t *testing.T) {
	cfg := Config{MappingSlots: 8, PMapBuckets: 8}
	env := newEnv(t, cfg, func(env *testEnv, e *hw.Exec) {
		sid := env.mustLoadSpace(e, false)
		for i := uint32(0); i < 12; i++ {
			env.mustMap(e, sid, MappingSpec{
				VA: 0x2000_0000 + i*hw.PageSize, PFN: env.frame(), Writable: true,
			})
		}
	})
	env.run()
	if len(env.wb.mappings) < 4 {
		t.Fatalf("writebacks = %d, want >= 4", len(env.wb.mappings))
	}
	if env.k.pm.Live() > 8 {
		t.Fatalf("live records = %d exceeds capacity", env.k.pm.Live())
	}
}

func TestStaleIdentifierFailsAfterUnload(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		sid := env.mustLoadSpace(e, false)
		if err := k.UnloadSpace(e, sid); err != nil {
			t.Fatalf("UnloadSpace: %v", err)
		}
		if _, err := k.LoadThread(e, sid, ThreadState{Priority: 10, Exec: e}, false); err != ErrInvalidID {
			t.Fatalf("LoadThread on stale space: %v, want ErrInvalidID", err)
		}
		if err := k.LoadMapping(e, sid, MappingSpec{VA: 0x1000, PFN: 1}); err != ErrInvalidID {
			t.Fatalf("LoadMapping on stale space: %v, want ErrInvalidID", err)
		}
	})
	env.run()
}

func TestGenerationChangesAcrossReload(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		a := env.mustLoadSpace(e, false)
		if err := k.UnloadSpace(e, a); err != nil {
			t.Fatal(err)
		}
		b := env.mustLoadSpace(e, false)
		if a == b {
			t.Error("identifier reused across reload")
		}
	})
	env.run()
}

func TestSecondThreadRunsAndSignals(t *testing.T) {
	var woke uint32
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		done := false
		tid := env.spawnThread(e, env.boot.Space, "waiter", 30, func(we *hw.Exec) {
			v, err := k.WaitSignal(we)
			if err != nil {
				t.Errorf("WaitSignal: %v", err)
			}
			woke = v
			done = true
		})
		// Give the waiter time to block, then post.
		e.Charge(hw.CyclesFromMicros(500))
		if err := k.PostSignal(e, tid, 0xabc0); err != nil {
			t.Fatalf("PostSignal: %v", err)
		}
		for !done {
			e.Charge(1000)
		}
	})
	env.run()
	if woke != 0xabc0 {
		t.Fatalf("signal value = %#x, want 0xabc0", woke)
	}
}

func TestMemoryBasedMessagingDeliversTranslatedAddress(t *testing.T) {
	var got uint32
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		pfn := env.frame()
		// Receiver space maps the shared frame at 0x5000_0000 in message
		// mode with a signal thread; sender (boot thread's space) maps it
		// at 0x6000_0000 writable in message mode.
		recvSpace := env.mustLoadSpace(e, false)
		var done bool
		rtid := env.spawnThread(e, recvSpace, "receiver", 35, func(re *hw.Exec) {
			v, err := k.WaitSignal(re)
			if err != nil {
				t.Errorf("receiver WaitSignal: %v", err)
			}
			got = v
			done = true
		})
		env.mustMap(e, recvSpace, MappingSpec{
			VA: 0x5000_0000, PFN: pfn, Message: true, SignalThread: rtid,
		})
		env.mustMap(e, env.boot.Space, MappingSpec{
			VA: 0x6000_0000, PFN: pfn, Writable: true, Message: true,
		})
		e.Store32(0x6000_0000+0x24, 7)
		for !done {
			e.Charge(1000)
		}
	})
	env.run()
	if got != 0x5000_0024 {
		t.Fatalf("signal value = %#x, want receiver VA 0x50000024", got)
	}
	if env.k.Stats.SignalsGenerated != 1 {
		t.Fatalf("signals generated = %d, want 1", env.k.Stats.SignalsGenerated)
	}
}

func TestReverseTLBFastPathOnRepeatedSignals(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		pfn := env.frame()
		recvSpace := env.mustLoadSpace(e, false)
		count := 0
		rtid := env.spawnThread(e, recvSpace, "receiver", 35, func(re *hw.Exec) {
			for i := 0; i < 4; i++ {
				if _, err := k.WaitSignal(re); err != nil {
					t.Errorf("WaitSignal: %v", err)
				}
				count++
			}
		})
		env.mustMap(e, recvSpace, MappingSpec{VA: 0x5000_0000, PFN: pfn, Message: true, SignalThread: rtid})
		env.mustMap(e, env.boot.Space, MappingSpec{VA: 0x6000_0000, PFN: pfn, Writable: true, Message: true})
		for i := 0; i < 4; i++ {
			e.Store32(0x6000_0000, uint32(i))
			e.Charge(hw.CyclesFromMicros(300))
		}
		for count < 4 {
			e.Charge(1000)
		}
	})
	env.run()
	if env.k.Stats.SignalsTwoStage == 0 {
		t.Fatal("expected at least one two-stage delivery (first signal)")
	}
	if env.k.Stats.SignalsFast == 0 {
		t.Fatal("expected reverse-TLB fast deliveries on repeats")
	}
	if env.k.Stats.SignalsFast+env.k.Stats.SignalsTwoStage+env.k.Stats.SignalsQueued < 4 {
		t.Fatalf("deliveries: fast=%d twoStage=%d queued=%d",
			env.k.Stats.SignalsFast, env.k.Stats.SignalsTwoStage, env.k.Stats.SignalsQueued)
	}
}

func TestRTLBDisabledForcesTwoStage(t *testing.T) {
	cfg := Config{RTLBEntries: -1} // withDefaults keeps negative as "no entries"
	env := newEnv(t, cfg, func(env *testEnv, e *hw.Exec) {
		k := env.k
		pfn := env.frame()
		recvSpace := env.mustLoadSpace(e, false)
		n := 0
		rtid := env.spawnThread(e, recvSpace, "receiver", 35, func(re *hw.Exec) {
			for i := 0; i < 3; i++ {
				if _, err := k.WaitSignal(re); err != nil {
					return
				}
				n++
			}
		})
		env.mustMap(e, recvSpace, MappingSpec{VA: 0x5000_0000, PFN: pfn, Message: true, SignalThread: rtid})
		env.mustMap(e, env.boot.Space, MappingSpec{VA: 0x6000_0000, PFN: pfn, Writable: true, Message: true})
		for i := 0; i < 3; i++ {
			e.Store32(0x6000_0000, uint32(i))
			e.Charge(hw.CyclesFromMicros(300))
		}
		for n < 3 {
			e.Charge(1000)
		}
	})
	env.run()
	if env.k.Stats.SignalsFast != 0 {
		t.Fatalf("fast deliveries = %d with RTLB disabled", env.k.Stats.SignalsFast)
	}
	if env.k.Stats.SignalsTwoStage == 0 {
		t.Fatal("no two-stage deliveries recorded")
	}
}

func TestUnloadSpaceUnloadsDependentsFirst(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		sid := env.mustLoadSpace(e, false)
		env.spawnThread(e, sid, "child", 20, func(ce *hw.Exec) {
			if _, err := k.WaitSignal(ce); err != nil {
				return
			}
		})
		for i := uint32(0); i < 3; i++ {
			env.mustMap(e, sid, MappingSpec{VA: 0x3000_0000 + i*hw.PageSize, PFN: env.frame()})
		}
		e.Charge(hw.CyclesFromMicros(500)) // let the child block
		if err := k.UnloadSpace(e, sid); err != nil {
			t.Fatalf("UnloadSpace: %v", err)
		}
	})
	env.run()
	// Explicit unload: dependents go to the writeback channel (the
	// space's own state is returned to the caller, not written back).
	var threads, mappings, spaces int
	for _, kind := range env.wb.order {
		switch kind {
		case "thread":
			threads++
		case "mapping":
			mappings++
		case "space":
			spaces++
		}
	}
	if threads != 1 || mappings != 3 || spaces != 0 {
		t.Fatalf("writebacks: %d threads, %d mappings, %d spaces (order %v)",
			threads, mappings, spaces, env.wb.order)
	}
}

func TestSpaceEvictionWritesBackDependentsFirst(t *testing.T) {
	cfg := Config{SpaceSlots: 3}
	env := newEnv(t, cfg, func(env *testEnv, e *hw.Exec) {
		// Slot 0 is the (locked) SRM space. Fill the remaining slots,
		// give the LRU one a mapping and thread, then overflow.
		victim := env.mustLoadSpace(e, false)
		env.spawnThread(e, victim, "vthread", 20, func(ce *hw.Exec) {
			_, _ = env.k.WaitSignal(ce)
		})
		env.mustMap(e, victim, MappingSpec{VA: 0x3000_0000, PFN: env.frame()})
		e.Charge(hw.CyclesFromMicros(500))
		env.mustLoadSpace(e, false)
		env.mustLoadSpace(e, false) // forces eviction of victim
	})
	env.run()
	spaceAt := -1
	for i, kind := range env.wb.order {
		if kind == "space" {
			spaceAt = i
			break
		}
	}
	if spaceAt == -1 {
		t.Fatalf("no space writeback (order %v)", env.wb.order)
	}
	var threads, mappings int
	for _, kind := range env.wb.order[:spaceAt] {
		switch kind {
		case "thread":
			threads++
		case "mapping":
			mappings++
		}
	}
	if threads != 1 || mappings != 1 {
		t.Fatalf("before space writeback: %d threads, %d mappings (order %v)",
			threads, mappings, env.wb.order)
	}
}

func TestTrapForwardingToOwningKernel(t *testing.T) {
	const sysGetpid = 20
	var result uint32
	env := newEnvOpts(t, hw.DefaultConfig(), Config{}, func(a *KernelAttrs) {
		a.Trap = func(e *hw.Exec, th ObjID, no uint32, args []uint32) (uint32, uint32) {
			if no == sysGetpid {
				e.Instr(10) // emulator's pid table lookup
				return 1234, 0
			}
			return ^uint32(0), 0
		}
	}, func(env *testEnv, e *hw.Exec) {
		// A user thread in a separate space owned by the SRM: its traps
		// forward to the SRM's trap handler.
		userSpace := env.mustLoadSpace(e, false)
		done := false
		env.spawnThread(e, userSpace, "user", 20, func(ue *hw.Exec) {
			r0, _ := ue.Trap(sysGetpid)
			result = r0
			done = true
		})
		for !done {
			e.Charge(1000)
		}
	})
	env.run()
	if result != 1234 {
		t.Fatalf("getpid = %d, want 1234", result)
	}
	if env.k.Stats.TrapsForwarded != 1 {
		t.Fatalf("traps forwarded = %d, want 1", env.k.Stats.TrapsForwarded)
	}
}

func TestSelfUnloadParksThread(t *testing.T) {
	var phase []string
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		var tid ObjID
		tid = env.spawnThread(e, env.boot.Space, "worker", 20, func(we *hw.Exec) {
			phase = append(phase, "start")
			// Unload self: returns only after reload + redispatch.
			if _, err := k.UnloadThread(we, tid); err != nil {
				t.Errorf("self unload: %v", err)
				return
			}
			phase = append(phase, "resumed")
		})
		e.Charge(hw.CyclesFromMicros(2000)) // let the worker unload itself
		if env.k.threads.Loaded() != 1 {    // only the boot thread remains
			t.Errorf("loaded threads = %d, want 1", env.k.threads.Loaded())
		}
	})
	env.run()
	if len(phase) != 1 || phase[0] != "start" {
		t.Fatalf("phase = %v, want [start] (worker parked)", phase)
	}
}

func TestThreadReloadRoundTrip(t *testing.T) {
	var phase []string
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		exec := env.m.MPMs[0].NewExec("worker", func(we *hw.Exec) {
			phase = append(phase, "start")
			to := k.threadOf(we)
			if _, err := k.UnloadThread(we, to.id); err != nil {
				t.Errorf("self unload: %v", err)
				return
			}
			phase = append(phase, "resumed")
		})
		if _, err := k.LoadThread(e, env.boot.Space, ThreadState{Priority: 20, Exec: exec}, false); err != nil {
			t.Fatalf("LoadThread: %v", err)
		}
		e.Charge(hw.CyclesFromMicros(2000))
		if len(phase) != 1 {
			t.Fatalf("worker should have parked after unload; phase=%v", phase)
		}
		// Reload with the same execution context: the worker resumes
		// inside its UnloadThread call.
		if _, err := k.LoadThread(e, env.boot.Space, ThreadState{Priority: 20, Exec: exec}, false); err != nil {
			t.Fatalf("reload: %v", err)
		}
		e.Charge(hw.CyclesFromMicros(2000))
	})
	env.run()
	if len(phase) != 2 || phase[1] != "resumed" {
		t.Fatalf("phase = %v, want [start resumed]", phase)
	}
}

func TestAccessArrayEnforcement(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		// Load a second kernel with no memory rights.
		kid, err := k.LoadKernel(e, KernelAttrs{Name: "app", Wb: env.wb})
		if err != nil {
			t.Fatalf("LoadKernel: %v", err)
		}
		appSpace := env.mustLoadSpace(e, false)
		if err := k.SetKernelSpace(e, kid, appSpace); err != nil {
			t.Fatalf("SetKernelSpace: %v", err)
		}
		// An app-kernel thread trying to map an unauthorized frame fails.
		done := false
		env.spawnThread(e, appSpace, "appmain", 25, func(ae *hw.Exec) {
			// Note: this thread is owned by the SRM (loaded by it), so
			// to test the app kernel's rights we must check via a thread
			// whose owner is the app kernel. The SRM has full rights, so
			// here we only verify the array arithmetic via direct access
			// checks.
			done = true
		})
		ko, _ := k.lookupKernel(kid)
		if k.checkMappingAccess(e, ko, 0x100, false) {
			t.Error("kernel with empty access array passed read check")
		}
		if err := k.SetKernelMemoryAccess(e, kid, 0x100/hw.PageGroupPages, 1, true, false); err != nil {
			t.Fatalf("SetKernelMemoryAccess: %v", err)
		}
		if !k.checkMappingAccess(e, ko, 0x100, false) {
			t.Error("read denied after grant")
		}
		if k.checkMappingAccess(e, ko, 0x100, true) {
			t.Error("write allowed with read-only grant")
		}
		for !done {
			e.Charge(1000)
		}
	})
	env.run()
}

// TestBootGrantsFullAccess requires Boot to give the first kernel read
// and write rights on every one of the pageGroups page groups, and a
// following SetKernelMemoryAccess on an unaligned range, groups 5-10,
// to change exactly those groups.
func TestBootGrantsFullAccess(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		ko := env.k.first
		check := func(when string, first, last uint32, in groupRights) {
			for g := uint32(0); g < pageGroups; g++ {
				want := rightRead | rightWrite
				if g >= first && g <= last {
					want = in
				}
				if r := ko.groupAccess(g); r != want {
					t.Fatalf("%s: group %d has rights %d, want %d", when, g, r, want)
				}
			}
		}
		check("after Boot", 1, 0, 0)
		if err := env.k.SetKernelMemoryAccess(e, env.boot.Kernel, 5, 6, true, false); err != nil {
			t.Fatalf("SetKernelMemoryAccess: %v", err)
		}
		check("after a read-only grant on groups 5-10", 5, 10, rightRead)
	})
	env.run()
}

// TestTimeSliceRoundRobin runs two equal-priority threads of eight
// slices each on one CPU: only the slice timer can switch between them.
func TestTimeSliceRoundRobin(t *testing.T) {
	hwCfg := hw.DefaultConfig()
	hwCfg.CPUsPerMPM = 1
	var aRuns, bRuns int
	env := newEnvOpts(t, hwCfg, Config{}, nil, func(env *testEnv, e *hw.Exec) {
		mk := func(name string, counter *int) func(*hw.Exec) {
			return func(we *hw.Exec) {
				for i := 0; i < 40; i++ {
					we.Charge(timeSlice / 5)
					*counter++
				}
			}
		}
		env.spawnThread(e, env.boot.Space, "a", 20, mk("a", &aRuns))
		env.spawnThread(e, env.boot.Space, "b", 20, mk("b", &bRuns))
		// Boot thread sleeps at high priority by blocking.
		if _, err := env.k.WaitSignal(e); err == nil {
			t.Log("boot woke unexpectedly")
		}
	})
	// The boot thread blocks forever; run drains everything else.
	env.run()
	if aRuns != 40 || bRuns != 40 {
		t.Fatalf("runs: a=%d b=%d, want 40/40", aRuns, bRuns)
	}
	if env.k.Stats.ContextSwitches < 4 {
		t.Fatalf("context switches = %d, want >= 4 (time slicing)", env.k.Stats.ContextSwitches)
	}
}

func TestPriorityPreemption(t *testing.T) {
	hwCfg := hw.DefaultConfig()
	hwCfg.CPUsPerMPM = 1
	var order []string
	env := newEnvOpts(t, hwCfg, Config{}, nil, func(env *testEnv, e *hw.Exec) {
		k := env.k
		env.spawnThread(e, env.boot.Space, "low", 10, func(we *hw.Exec) {
			// After some work, spawn a higher-priority thread; it must
			// preempt this one and finish first.
			we.Charge(5000)
			env.spawnThread(we, env.boot.Space, "high", 30, func(he *hw.Exec) {
				he.Charge(2000)
				order = append(order, "high-done")
			})
			for i := 0; i < 50; i++ {
				we.Charge(2000)
			}
			order = append(order, "low-done")
		})
		// The boot thread blocks forever, freeing the only CPU.
		_, _ = k.WaitSignal(e)
	})
	env.run()
	if len(order) != 2 || order[0] != "high-done" {
		t.Fatalf("order = %v, want high-done first", order)
	}
	if env.k.Stats.Preemptions == 0 {
		t.Fatal("no preemptions recorded")
	}
}

// TestQuotaDemotionUnderLoad runs a kernel with a 10% share of its
// CPU over 30 accounting windows of compute: it must be demoted.
func TestQuotaDemotionUnderLoad(t *testing.T) {
	hwCfg := hw.DefaultConfig()
	hwCfg.CPUsPerMPM = 1
	env := newEnvOpts(t, hwCfg, Config{}, nil, func(env *testEnv, e *hw.Exec) {
		k := env.k
		kid, err := k.LoadKernel(e, KernelAttrs{Name: "greedy", Wb: env.wb})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetKernelCPUShare(e, kid, []int{10}); err != nil {
			t.Fatal(err)
		}
		gSpace := env.mustLoadSpace(e, false)
		if err := k.SetKernelSpace(e, kid, gSpace); err != nil {
			t.Fatal(err)
		}
		// Hand ownership bookkeeping: spawn a compute-bound thread and
		// reassign it to the greedy kernel by loading through it.
		ko, _ := k.lookupKernel(kid)
		exec := env.m.MPMs[0].NewExec("burner", func(we *hw.Exec) {
			for i := 0; i < 3000; i++ {
				we.Charge(accountingWindow / 100)
			}
		})
		to, err := k.newThreadObj(e, ko, k.spaces.at(int32(gSpace.slot())), ThreadState{Priority: 30, Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		k.sched.makeReady(to, e.Now())
		// Boot thread periodically wakes so the burner cannot monopolize
		// without accounting.
		for i := 0; i < 40; i++ {
			e.Charge(accountingWindow / 2)
		}
	})
	env.run()
	if env.k.Stats.QuotaDemotions == 0 {
		t.Fatal("greedy kernel was never demoted")
	}
}

func TestLockedObjectsSurviveEviction(t *testing.T) {
	cfg := Config{MappingSlots: 6, PMapBuckets: 8}
	env := newEnv(t, cfg, func(env *testEnv, e *hw.Exec) {
		k := env.k
		sid := env.boot.Space // SRM space: kernel and space are locked
		env.mustMap(e, sid, MappingSpec{VA: 0x7000_0000, PFN: env.frame(), Locked: true, Writable: true})
		// Fill and overflow the pool; the locked mapping must survive.
		for i := uint32(0); i < 10; i++ {
			env.mustMap(e, sid, MappingSpec{VA: 0x7100_0000 + i*hw.PageSize, PFN: env.frame()})
		}
		if _, ok := k.MappingInfo(sid, 0x7000_0000); !ok {
			t.Error("locked mapping was evicted")
		}
	})
	env.run()
	for _, st := range env.wb.mappings {
		if st.VA == 0x7000_0000 {
			t.Fatal("locked mapping written back")
		}
	}
}

func TestLockQuotaEnforced(t *testing.T) {
	env := newEnvOpts(t, hw.DefaultConfig(), Config{}, func(a *KernelAttrs) {
		a.LockQuota = [4]int{0, 1, 0, 2}
	}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		if _, err := k.LoadSpace(e, true); err != nil {
			t.Fatalf("first locked space: %v", err)
		}
		if _, err := k.LoadSpace(e, true); err != ErrLockQuota {
			t.Fatalf("second locked space: %v, want ErrLockQuota", err)
		}
		sid := env.mustLoadSpace(e, false)
		for i := uint32(0); i < 2; i++ {
			env.mustMap(e, sid, MappingSpec{VA: 0x100_0000 + i*hw.PageSize, PFN: env.frame(), Locked: true})
		}
		err := k.LoadMapping(e, sid, MappingSpec{VA: 0x200_0000, PFN: env.frame(), Locked: true})
		if err != ErrLockQuota {
			t.Fatalf("third locked mapping: %v, want ErrLockQuota", err)
		}
	})
	env.run()
}

func TestMultiMappingConsistency(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		pfn := env.frame()
		recvSpace := env.mustLoadSpace(e, false)
		rtid := env.spawnThread(e, recvSpace, "receiver", 35, func(re *hw.Exec) {
			_, _ = k.WaitSignal(re)
		})
		env.mustMap(e, recvSpace, MappingSpec{VA: 0x5000_0000, PFN: pfn, Message: true, SignalThread: rtid})
		env.mustMap(e, env.boot.Space, MappingSpec{VA: 0x6000_0000, PFN: pfn, Writable: true, Message: true})
		e.Charge(hw.CyclesFromMicros(300))
		// Unloading the receiver's signal mapping must flush the sender's
		// writable mapping of the same page.
		if _, err := k.UnloadMapping(e, recvSpace, 0x5000_0000); err != nil {
			t.Fatalf("UnloadMapping: %v", err)
		}
		if _, ok := k.MappingInfo(env.boot.Space, 0x6000_0000); ok {
			t.Error("sender's writable mapping survived the signal mapping flush")
		}
	})
	env.run()
}

func TestKernelCacheEviction(t *testing.T) {
	cfg := Config{KernelSlots: 3}
	env := newEnv(t, cfg, func(env *testEnv, e *hw.Exec) {
		k := env.k
		// Slot 1 is the SRM (locked). Load kernels until eviction.
		var ids []ObjID
		for i := 0; i < 4; i++ {
			kid, err := k.LoadKernel(e, KernelAttrs{Name: "app", Wb: env.wb})
			if err != nil {
				t.Fatalf("LoadKernel %d: %v", i, err)
			}
			ids = append(ids, kid)
		}
		// The first loaded app kernel must have been written back.
		if _, ok := k.lookupKernel(ids[0]); ok {
			t.Error("LRU kernel still loaded after overflow")
		}
		if _, ok := k.lookupKernel(ids[3]); !ok {
			t.Error("most recent kernel missing")
		}
	})
	env.run()
	if len(env.wb.kernels) != 2 {
		t.Fatalf("kernel writebacks = %d, want 2", len(env.wb.kernels))
	}
}

func TestSetThreadPriorityRequeues(t *testing.T) {
	hwCfg := hw.DefaultConfig()
	hwCfg.CPUsPerMPM = 1
	var order []string
	env := newEnvOpts(t, hwCfg, Config{}, nil, func(env *testEnv, e *hw.Exec) {
		k := env.k
		a := env.spawnThread(e, env.boot.Space, "a", 10, func(we *hw.Exec) {
			we.Charge(3000)
			order = append(order, "a")
		})
		env.spawnThread(e, env.boot.Space, "b", 20, func(we *hw.Exec) {
			we.Charge(3000)
			order = append(order, "b")
		})
		// Raise a above b before either runs (boot thread holds the CPU).
		if err := k.SetThreadPriority(e, a, 30); err != nil {
			t.Fatalf("SetThreadPriority: %v", err)
		}
		_, _ = k.WaitSignal(e) // release the CPU forever
	})
	env.run()
	if len(order) != 2 || order[0] != "a" {
		t.Fatalf("order = %v, want a first", order)
	}
}

func TestBlockResumeThread(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		n := 0
		// The worker must outlive several engine slice quanta so that
		// BlockThread catches it mid-run rather than already exited.
		tid := env.spawnThread(e, env.boot.Space, "w", 20, func(we *hw.Exec) {
			for i := 0; i < 10; i++ {
				we.Charge(50_000)
				n++
			}
		})
		e.Charge(3000)
		if err := k.BlockThread(e, tid); err != nil {
			t.Fatalf("BlockThread: %v", err)
		}
		blocked := n
		e.Charge(50_000)
		if n != blocked {
			t.Errorf("thread advanced while blocked: %d -> %d", blocked, n)
		}
		if err := k.ResumeThread(e, tid); err != nil {
			t.Fatalf("ResumeThread: %v", err)
		}
		for n < 10 {
			e.Charge(1000)
		}
	})
	env.run()
}

func TestUnloadMappingRangeAndInfo(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		sid := env.mustLoadSpace(e, false)
		base := uint32(0x4400_0000)
		for i := uint32(0); i < 6; i++ {
			env.mustMap(e, sid, MappingSpec{VA: base + i*hw.PageSize, PFN: env.frame(), Writable: true})
		}
		if st, ok := k.MappingInfo(sid, base); !ok || !st.Writable {
			t.Fatalf("MappingInfo = %+v, %v", st, ok)
		}
		// Unload the middle four (one hole is fine).
		if _, err := k.UnloadMapping(e, sid, base+2*hw.PageSize); err != nil {
			t.Fatal(err)
		}
		states, err := k.UnloadMappingRange(e, sid, base+hw.PageSize, 4*hw.PageSize)
		if err != nil {
			t.Fatalf("range unload: %v", err)
		}
		if len(states) != 3 { // pages 1, 3, 4 (2 already gone)
			t.Fatalf("range unloaded %d mappings", len(states))
		}
		if _, ok := k.MappingInfo(sid, base); !ok {
			t.Fatal("page 0 should survive")
		}
		if _, ok := k.MappingInfo(sid, base+5*hw.PageSize); !ok {
			t.Fatal("page 5 should survive")
		}
		for i := uint32(1); i < 5; i++ {
			if _, ok := k.MappingInfo(sid, base+i*hw.PageSize); ok {
				t.Fatalf("page %d still mapped", i)
			}
		}
	})
	env.run()
}

func TestMaxPriorityCeilingEnforced(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		kid, err := k.LoadKernel(e, KernelAttrs{Name: "capped", Wb: env.wb, MaxPrio: 12})
		if err != nil {
			t.Fatal(err)
		}
		sid := env.mustLoadSpace(e, false)
		if err := k.SetKernelSpace(e, kid, sid); err != nil {
			t.Fatal(err)
		}
		// A thread loaded by the capped kernel itself may not exceed 12.
		done := false
		env.spawnThread(e, sid, "capmain", 10, func(me *hw.Exec) {
			exec2 := env.m.MPMs[0].NewExec("hi", func(*hw.Exec) {})
			_, err := k.LoadThread(me, sid, ThreadState{Priority: 30, Exec: exec2}, false)
			if err != ErrBadPriority {
				t.Errorf("over-ceiling load: %v, want ErrBadPriority", err)
			}
			if _, err := k.LoadThread(me, sid, ThreadState{Priority: 12, Exec: exec2}, false); err != nil {
				t.Errorf("at-ceiling load: %v", err)
			}
			done = true
		})
		for !done {
			e.Charge(2000)
		}
		// Raising the ceiling via the modify call then succeeds.
		if err := k.SetKernelMaxPriority(e, kid, 40); err != nil {
			t.Fatal(err)
		}
	})
	env.run()
}

// TestSignalQueueOverflowDrops posts twice the queue limit to a thread
// that never waits: the first half is queued, the rest dropped.
func TestSignalQueueOverflowDrops(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		tid := env.spawnThread(e, env.boot.Space, "busy", 20, func(we *hw.Exec) {
			we.Charge(hw.CyclesFromMicros(50_000)) // never waiting
		})
		e.Charge(hw.CyclesFromMicros(200))
		for i := 0; i < 2*signalQueueLimit; i++ {
			_ = k.PostSignal(e, tid, uint32(i))
		}
		if k.Stats.SignalsQueued != signalQueueLimit {
			t.Errorf("queued = %d, want %d", k.Stats.SignalsQueued, signalQueueLimit)
		}
		if k.Stats.SignalsDropped != signalQueueLimit {
			t.Errorf("dropped = %d, want %d", k.Stats.SignalsDropped, signalQueueLimit)
		}
	})
	env.run()
}

func TestDeviceSignalToUnloadedThreadIsDropped(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		tid := env.spawnThread(e, env.boot.Space, "w", 20, func(we *hw.Exec) {
			_, _ = k.WaitSignal(we)
		})
		e.Charge(hw.CyclesFromMicros(500))
		if _, err := k.UnloadThread(e, tid); err != nil {
			t.Fatal(err)
		}
		if k.RaiseDeviceSignal(tid, 1) {
			t.Fatal("device signal to unloaded thread delivered")
		}
	})
	env.run()
}
