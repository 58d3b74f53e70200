package ck

import (
	"testing"

	"vpp/internal/hw"
)

// TestStaleSpaceResolvesNoKernel: an execution that still holds the
// hardware view of an unloaded space must not act with the authority
// of the space another kernel now holds in the same slot (and so under
// the same ASID).
func TestStaleSpaceResolvesNoKernel(t *testing.T) {
	env := newEnv(t, Config{}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		kid1, err := k.LoadKernel(e, KernelAttrs{Name: "k1"})
		if err != nil {
			t.Fatal(err)
		}
		s1 := env.mustLoadSpace(e, false)
		if err := k.SetKernelSpace(e, kid1, s1); err != nil {
			t.Fatal(err)
		}
		so1, _ := k.lookupSpace(s1)
		stale := so1.hw
		// Unloading k1 unloads its designated space, freeing its slot.
		if err := k.UnloadKernel(e, kid1); err != nil {
			t.Fatal(err)
		}
		kid2, err := k.LoadKernel(e, KernelAttrs{Name: "k2"})
		if err != nil {
			t.Fatal(err)
		}
		s2 := env.mustLoadSpace(e, false)
		if err := k.SetKernelSpace(e, kid2, s2); err != nil {
			t.Fatal(err)
		}
		so2, _ := k.lookupSpace(s2)
		if so2.hw.ASID != stale.ASID {
			t.Fatalf("k2's space has ASID %d, want the reused ASID %d", so2.hw.ASID, stale.ASID)
		}

		x := k.MPM.NewExec("stale", func(*hw.Exec) {})
		x.Space = stale
		if so := k.spaceOf(stale); so != nil {
			t.Errorf("spaceOf(stale view) = %v, want nil", so.id)
		}
		if ko, err := k.callerKernel(x); err == nil {
			t.Errorf("a call from the stale space acts as kernel %q, want no owning kernel", ko.attrs.Name)
		}
		x.Space = so2.hw
		if ko, err := k.callerKernel(x); err != nil || ko.id != kid2 {
			t.Errorf("a call from k2's space resolves to %v, %v; want k2", ko, err)
		}
	})
	env.run()
}

// redesignWb writes back like wbRecorder and calls hook on the first
// mapping writeback.
type redesignWb struct {
	*wbRecorder
	hook func()
}

func (w *redesignWb) MappingWriteback(st MappingState) {
	w.wbRecorder.MappingWriteback(st)
	if h := w.hook; h != nil {
		w.hook = nil
		h()
	}
}

// TestKernelUnloadClearsDesignation: a kernel unload drops the
// designation of the space the kernel designates when the unload ends,
// also when a writeback handler re-designated the kernel's space while
// its old one was being unloaded. The new space stays loaded and must
// not carry the authority of the unloaded kernel.
func TestKernelUnloadClearsDesignation(t *testing.T) {
	wb := &redesignWb{}
	env := newEnvOpts(t, hw.DefaultConfig(), Config{}, func(a *KernelAttrs) {
		wb.wbRecorder = a.Wb.(*wbRecorder)
		a.Wb = wb
	}, func(env *testEnv, e *hw.Exec) {
		k := env.k
		kid, err := k.LoadKernel(e, KernelAttrs{Name: "k"})
		if err != nil {
			t.Fatal(err)
		}
		s1 := env.mustLoadSpace(e, false)
		if err := k.SetKernelSpace(e, kid, s1); err != nil {
			t.Fatal(err)
		}
		env.mustMap(e, s1, MappingSpec{VA: 0x10000, PFN: env.frame(), Writable: true, Cachable: true})
		s2 := env.mustLoadSpace(e, false)
		wb.hook = func() {
			if err := k.SetKernelSpace(e, kid, s2); err != nil {
				t.Errorf("re-designation during the unload: %v", err)
			}
		}
		if err := k.UnloadKernel(e, kid); err != nil {
			t.Fatal(err)
		}
		if wb.hook != nil {
			t.Fatal("the unload wrote back no mapping")
		}
		so2, ok := k.lookupSpace(s2)
		if !ok {
			t.Fatal("the re-designated space was unloaded with the kernel")
		}
		if so2.kernel != nil {
			t.Errorf("space %v still designated by unloaded kernel %q", s2, so2.kernel.attrs.Name)
		}
		x := k.MPM.NewExec("in-s2", func(*hw.Exec) {})
		x.Space = so2.hw
		if ko, err := k.callerKernel(x); err == nil {
			t.Errorf("a call from the space acts as kernel %q after its unload", ko.attrs.Name)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
	env.run()
}
