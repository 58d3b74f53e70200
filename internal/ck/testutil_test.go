package ck

import (
	"math"
	"testing"

	"vpp/internal/hw"
)

// wbRecorder records writeback traffic for assertions.
type wbRecorder struct {
	mappings []MappingState
	threads  []ObjID
	thStates []ThreadState
	spaces   []ObjID
	kernels  []ObjID
	order    []string // interleaved event kinds, for dependency-order checks
}

func (w *wbRecorder) MappingWriteback(st MappingState) {
	w.mappings = append(w.mappings, st)
	w.order = append(w.order, "mapping")
}

func (w *wbRecorder) ThreadWriteback(id ObjID, st ThreadState) {
	w.threads = append(w.threads, id)
	w.thStates = append(w.thStates, st)
	w.order = append(w.order, "thread")
}

func (w *wbRecorder) SpaceWriteback(id ObjID) {
	w.spaces = append(w.spaces, id)
	w.order = append(w.order, "space")
}

func (w *wbRecorder) KernelWriteback(id ObjID) {
	w.kernels = append(w.kernels, id)
	w.order = append(w.order, "kernel")
}

// testEnv bundles a machine with a booted Cache Kernel.
type testEnv struct {
	t    testing.TB
	m    *hw.Machine
	k    *Kernel
	wb   *wbRecorder
	boot BootInfo

	nextFrame uint32
}

// identityFault loads an identity mapping (va -> pfn va>>12) on any
// fault; the default test fault policy.
func (env *testEnv) identityFault(k *Kernel) FaultHandler {
	return func(e *hw.Exec, th, space ObjID, va uint32, write bool, f hw.Fault) bool {
		err := k.LoadMappingAndResume(e, space, MappingSpec{
			VA:       va &^ (hw.PageSize - 1),
			PFN:      va >> hw.PageShift,
			Writable: true,
			Cachable: true,
		})
		return err == nil
	}
}

// newEnvOpts builds a machine/kernel and boots an SRM-like first kernel
// whose body is fn. Extra kernel attrs can be adjusted via mutate.
func newEnvOpts(t testing.TB, hwCfg hw.Config, cfg Config, mutate func(*KernelAttrs), fn func(env *testEnv, e *hw.Exec)) *testEnv {
	t.Helper()
	env := &testEnv{t: t, wb: &wbRecorder{}, nextFrame: 256}
	env.m = hw.NewMachine(hwCfg)
	k, err := New(env.m.MPMs[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.k = k
	attrs := KernelAttrs{
		Name:      "srm",
		Wb:        env.wb,
		MaxPrio:   0, // unrestricted
		LockQuota: [4]int{8, 16, 32, 1024},
		Fault:     env.identityFault(k),
	}
	if mutate != nil {
		mutate(&attrs)
	}
	boot, err := k.Boot(attrs, 40, func(e *hw.Exec) { fn(env, e) })
	if err != nil {
		t.Fatal(err)
	}
	env.boot = boot
	return env
}

func newEnv(t *testing.T, cfg Config, fn func(env *testEnv, e *hw.Exec)) *testEnv {
	return newEnvOpts(t, hw.DefaultConfig(), cfg, nil, fn)
}

// run drives the machine to quiescence.
func (env *testEnv) run() {
	env.t.Helper()
	env.m.SetMaxSteps(50_000_000)
	if err := env.m.Run(math.MaxUint64); err != nil {
		env.t.Fatalf("machine run: %v", err)
	}
}

// frame hands out fresh physical frames for test workloads.
func (env *testEnv) frame() uint32 {
	f := env.nextFrame
	env.nextFrame++
	return f
}

// mustLoadSpace wraps LoadSpace with a fatal on error.
func (env *testEnv) mustLoadSpace(e *hw.Exec, locked bool) ObjID {
	env.t.Helper()
	id, err := env.k.LoadSpace(e, locked)
	if err != nil {
		env.t.Fatalf("LoadSpace: %v", err)
	}
	return id
}

// mustMap wraps LoadMapping with a fatal on error.
func (env *testEnv) mustMap(e *hw.Exec, sid ObjID, spec MappingSpec) {
	env.t.Helper()
	if err := env.k.LoadMapping(e, sid, spec); err != nil {
		env.t.Fatalf("LoadMapping(%v, va %#x): %v", sid, spec.VA, err)
	}
}

// spawnThread creates an exec+thread in the given space at priority.
func (env *testEnv) spawnThread(e *hw.Exec, sid ObjID, name string, prio int, body func(*hw.Exec)) ObjID {
	env.t.Helper()
	exec := env.m.MPMs[0].NewExec(name, body)
	tid, err := env.k.LoadThread(e, sid, ThreadState{Priority: prio, Exec: exec}, false)
	if err != nil {
		env.t.Fatalf("LoadThread(%s): %v", name, err)
	}
	return tid
}
