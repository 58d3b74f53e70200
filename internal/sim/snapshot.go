package sim

import "fmt"

// Snapshot support: the engine's contribution to a whole-machine
// snapshot/fork. Go coroutines cannot be serialized structurally (a
// parked goroutine's stack is opaque), so a structural snapshot is only
// taken when the engine is quiescent — every coroutine has finished and
// no event is pending. At that point the engine's entire state is the
// pair (now, schedAt) plus the monotone clocks hanging off it, and a
// fork restores it by warping a fresh engine forward to the captured
// times. A machine that is not quiescent cannot be snapshotted.

// Quiescent reports whether the engine has fully drained: no live
// coroutines (finished ones are removed from tracking) and no pending
// events. The error names the first live entity, for diagnostics when a
// snapshot is refused.
func (e *Engine) Quiescent() error {
	if n := len(e.coros); n != 0 {
		return fmt.Errorf("sim: engine not quiescent: %d live coroutine(s), first %q", n, e.coros[0].name)
	}
	// With no live coroutine, every queued entry is an event.
	if n := len(e.queue); n != 0 {
		return fmt.Errorf("sim: engine not quiescent: %d pending event(s), next at %d", n, e.queue[0].at)
	}
	return nil
}

// Warp advances the engine's idle clocks (now and the schedule-point
// clock) forward to t, as if the engine had already simulated up to
// that time. It is the restore half of a quiescent snapshot: a forked
// machine warps its fresh engine to the parent's captured time so
// continuation work dispatches at the same virtual instant on both. It
// never moves time backward and panics if called while a coroutine is
// executing.
func (e *Engine) Warp(t uint64) {
	if e.current != nil {
		panic("sim: Warp while a coroutine is executing")
	}
	if t > e.now {
		e.now = t
	}
	if t > e.schedAt {
		e.schedAt = t
	}
}
