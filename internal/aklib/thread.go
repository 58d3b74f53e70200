package aklib

import (
	"fmt"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// The processing library: a thread library that schedules threads by
// loading them into the Cache Kernel rather than running its own
// dispatcher (paper Section 3). The application kernel keeps the backing
// descriptor for every thread; the Cache Kernel caches the loaded subset.

// Thread is an application kernel's backing record for one thread.
type Thread struct {
	AK      *AppKernel
	Name    string
	SpaceID ck.ObjID
	Exec    *hw.Exec

	// TID is the Cache Kernel identifier while loaded (changes on every
	// reload, as identifiers do in the caching model).
	TID    ck.ObjID
	Loaded bool

	state ck.ThreadState
	body  func(e *hw.Exec)
}

// NewThread creates a thread record whose body runs when first loaded
// and dispatched.
func (ak *AppKernel) NewThread(name string, sid ck.ObjID, prio int, body func(e *hw.Exec)) *Thread {
	th := &Thread{
		AK:      ak,
		Name:    name,
		SpaceID: sid,
		body:    body,
	}
	th.Exec = ak.MPM.NewExec(ak.Name+"/"+name, body)
	th.state = ck.ThreadState{Priority: prio, Exec: th.Exec}
	return th
}

// Revive replaces a finished execution context with a fresh one running
// the thread's body from the start. A Cache Kernel crash kills the
// contexts that were running on the MPM's CPUs; their register state is
// unrecoverable, so the application kernel — which holds the program,
// not just the cached descriptor — reruns it. Threads adopted without a
// body (and contexts that are still resumable) are not revivable.
func (t *Thread) Revive() bool {
	if t.body == nil || t.Exec == nil || !t.Exec.Finished() {
		return false
	}
	t.Exec = t.AK.MPM.NewExec(t.AK.Name+"/"+t.Name, t.body)
	t.state = ck.ThreadState{Priority: t.state.Priority, Exec: t.Exec}
	t.Loaded = false
	t.TID = 0
	return true
}

// Retire kills the thread's execution context in place. Live migration
// calls it on the source MPM after the descriptor writeback: an
// execution context is bound to the MPM that created it, so it cannot
// follow the backing record to another MPM — the adopting side
// regenerates a fresh context from the body with Rehome. A retired
// context that is parked never runs again (the crash path leaves killed
// parked contexts the same way).
func (t *Thread) Retire() {
	if t.Exec != nil && !t.Exec.Finished() {
		t.Exec.Kill()
	}
}

// Rehome replaces the thread's (retired or finished) execution context
// with a fresh one created on the kernel's current MPM, rerunning the
// body from the start on next load. It is Revive for migration: the
// caching model keeps every thread regenerable from its backing record,
// so moving the record between MPMs only costs rebuilding the context.
func (t *Thread) Rehome() bool {
	if t.body == nil {
		return false
	}
	t.Exec = t.AK.MPM.NewExec(t.AK.Name+"/"+t.Name, t.body)
	t.state = ck.ThreadState{Priority: t.state.Priority, Exec: t.Exec}
	t.Loaded = false
	t.TID = 0
	return true
}

// TrackThread registers another kernel's thread record for writeback
// routing. The SRM owns the main threads it loads for launched kernels,
// so the Cache Kernel writes them back to the SRM; tracking lets the
// record absorb that state.
func (ak *AppKernel) TrackThread(t *Thread) {
	if t.Loaded {
		ak.threadsByID[t.TID] = t
	}
}

// AdoptThread registers a record for a thread loaded outside the
// library (the SRM's boot thread) so writebacks and fault routing find
// it.
func (ak *AppKernel) AdoptThread(name string, tid, sid ck.ObjID, exec *hw.Exec, prio int) *Thread {
	th := &Thread{
		AK:      ak,
		Name:    name,
		SpaceID: sid,
		Exec:    exec,
		TID:     tid,
		Loaded:  true,
		state:   ck.ThreadState{Priority: prio, Exec: exec},
	}
	ak.threadsByID[tid] = th
	return th
}

// Load makes the thread a candidate for execution by loading its
// descriptor into the Cache Kernel. If the containing space was written
// back, Load fails with ck.ErrInvalidID and the caller reloads the space
// first — the retry protocol of paper §2.
func (t *Thread) Load(e *hw.Exec, locked bool) error {
	if t.Loaded {
		return fmt.Errorf("aklib: thread %q already loaded", t.Name)
	}
	tid, err := t.AK.CK.LoadThread(e, t.SpaceID, t.state, locked)
	if err != nil {
		return err
	}
	t.TID = tid
	t.Loaded = true
	t.AK.threadsByID[tid] = t
	return nil
}

// Unload removes the thread from the Cache Kernel, saving its state in
// this record (the backing store of the caching model).
func (t *Thread) Unload(e *hw.Exec) error {
	if !t.Loaded {
		return fmt.Errorf("aklib: thread %q not loaded", t.Name)
	}
	st, err := t.AK.CK.UnloadThread(e, t.TID)
	if err != nil {
		return err
	}
	delete(t.AK.threadsByID, t.TID)
	t.absorbWriteback(st)
	return nil
}

// MarkUnloaded records that the thread is being unloaded outside the
// library's Unload path (a self-unload issued from the thread itself),
// clearing the library's loaded-thread bookkeeping first.
func (t *Thread) MarkUnloaded() {
	if !t.Loaded {
		return
	}
	delete(t.AK.threadsByID, t.TID)
	t.Loaded = false
	t.TID = 0
}

// absorbWriteback saves written-back state and marks the record
// unloaded.
func (t *Thread) absorbWriteback(st ck.ThreadState) {
	t.state = st
	t.Loaded = false
	t.TID = 0
}

// SetPriority updates the backing priority and, if loaded, the cached
// descriptor via the specialized modify call.
func (t *Thread) SetPriority(e *hw.Exec, prio int) error {
	t.state.Priority = prio
	if !t.Loaded {
		return nil
	}
	return t.AK.CK.SetThreadPriority(e, t.TID, prio)
}

// Priority reports the backing priority.
func (t *Thread) Priority() int { return t.state.Priority }

// Wait blocks the calling thread (which must be this thread) until a
// signal arrives, returning the signalled address.
func (t *Thread) Wait(e *hw.Exec) (uint32, error) {
	return t.AK.CK.WaitSignal(e)
}

// Signal posts an address-valued signal to the thread.
func (t *Thread) Signal(e *hw.Exec, value uint32) error {
	if !t.Loaded {
		return fmt.Errorf("aklib: signal to unloaded thread %q", t.Name)
	}
	return t.AK.CK.PostSignal(e, t.TID, value)
}
