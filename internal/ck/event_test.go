package ck

import (
	"testing"

	"vpp/internal/hw"
)

// TestFaultEventsFollowFigure2: one demand fault reaches an observer as
// exactly the four steps of the paper's Figure 2 — fault, forward to
// the application kernel's handler, the combined load-and-resume call,
// handler return — in order, carrying the fields Detail renders.
func TestFaultEventsFollowFigure2(t *testing.T) {
	const va = 0x0040_0000
	var evs []Event
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		e.Store32(va+8, 1)
	})
	env.k.Observe(func(ev Event) {
		if ev.Kind != EvDispatch {
			evs = append(evs, ev)
		}
	})
	env.run()

	want := []EventKind{EvFault, EvForward, EvLoadResume, EvHandled}
	if len(evs) != len(want) {
		t.Fatalf("observed %d events %v, want %v", len(evs), evs, want)
	}
	for i, ev := range evs {
		if ev.Kind != want[i] {
			t.Fatalf("event %d is %v, want %v", i, ev.Kind, want[i])
		}
		if i > 0 && ev.At <= evs[i-1].At {
			t.Fatalf("event %d (%v) at %d, not after %d", i, ev.Kind, ev.At, evs[i-1].At)
		}
	}
	fault, fwd, load, handled := evs[0], evs[1], evs[2], evs[3]
	if fault.Obj != env.boot.Space || fault.A != va+8 || hw.Fault(fault.B) != hw.FaultMapping || fault.Name != "srm/boot" {
		t.Errorf("fault event %+v", fault)
	}
	if fwd.Name != "srm" {
		t.Errorf("forward event names handler %q, want srm", fwd.Name)
	}
	if load.A != va || load.B != va>>hw.PageShift {
		t.Errorf("load+resume event %+v, want va %#x pfn %#x", load, va, va>>hw.PageShift)
	}
	if handled.A != 1 {
		t.Errorf("handled event %+v, want resume", handled)
	}
	for i, want := range []string{
		"mapping access at 0x400008 in space#0.g1 (srm/boot)",
		`state saved; switched to kernel "srm" handler`,
		"mapping va=0x400000 pfn=0x400 loaded; exception completed",
		"handler returned resume=true",
	} {
		if got := evs[i].Detail(); got != want {
			t.Errorf("%v detail %q, want %q", evs[i].Kind, got, want)
		}
	}
}

// TestMappingFaultPathZeroAlloc: with no observer, a demand-fault loop
// that evicts a mapping on every fault allocates nothing once warm —
// the events it raises cost one length check each, and the mapping
// load keeps its reservation on the stack.
func TestMappingFaultPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	const (
		slots = 32
		pages = 48 // more pages than mapping slots: every lap evicts
		base  = uint32(0x2000_0000)
	)
	cfg := Config{MappingSlots: slots, PMapBuckets: slots / 4}
	var k *Kernel
	env := newEnvOpts(t, hw.DefaultConfig(), cfg, func(a *KernelAttrs) {
		a.Wb = nil
		// The identity policy of newEnv would map beyond physical
		// memory; recycle a small frame pool instead.
		a.Fault = func(e *hw.Exec, th, space ObjID, va uint32, write bool, f hw.Fault) bool {
			return k.LoadMappingAndResume(e, space, MappingSpec{
				VA: va &^ (hw.PageSize - 1), PFN: 256 + (va>>hw.PageShift)%slots, Writable: true, Cachable: true,
			}) == nil
		}
	}, func(env *testEnv, e *hw.Exec) {
		for {
			for p := uint32(0); p < pages; p++ {
				e.Touch(base+p*hw.PageSize, false)
			}
		}
	})
	k = env.k
	defer env.m.Close()
	slice := hw.CyclesFromMicros(2000)
	until := uint64(0)
	run := func() {
		until += slice
		if err := env.m.Run(until); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	faults, wbs := k.Stats.Faults, k.Stats.MappingWritebacks
	avg := testing.AllocsPerRun(16, run)
	if k.Stats.Faults == faults || k.Stats.MappingWritebacks == wbs {
		t.Fatalf("measured slices took %d faults and %d mapping writebacks; the loop is not evicting",
			k.Stats.Faults-faults, k.Stats.MappingWritebacks-wbs)
	}
	t.Logf("%d faults, %d mapping writebacks in the measured slices", k.Stats.Faults-faults, k.Stats.MappingWritebacks-wbs)
	if avg != 0 {
		t.Fatalf("demand-fault path allocates: %.2f allocs per 2 ms slice, want 0", avg)
	}
}
