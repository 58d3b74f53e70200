package sim

import "fmt"

// Snapshot support: the engine's contribution to a whole-machine
// snapshot/fork. Go coroutines cannot be serialized structurally (a
// parked goroutine's stack is opaque), so a structural snapshot is only
// taken when the cluster is quiescent — every coroutine has finished and
// no event is pending. At that point each engine's entire state is the
// pair (now, schedAt) plus the monotone clocks hanging off it, and a
// fork restores it by warping a fresh cluster forward to the captured
// times. Mid-trace snapshots are handled one level up by the replay
// tier (rebuild the recipe, re-run to the cut).

// quiescent reports whether the engine has fully drained: no live
// coroutines (finished ones are removed from tracking) and no pending
// events. The returned error names the first live entity, for
// diagnostics when a snapshot is refused.
func (e *Engine) quiescent() error {
	if n := len(e.coros); n != 0 {
		return fmt.Errorf("sim: engine not quiescent: %d live coroutine(s), first %q", n, e.coros[0].name)
	}
	if n := len(e.events); n != 0 {
		return fmt.Errorf("sim: engine not quiescent: %d pending event(s), next at %d", n, e.events[0].at)
	}
	return nil
}

// warp advances the engine's idle clocks (now and the schedule-point
// clock) forward to t, as if the engine had already simulated up to
// that time. It never moves time backward and panics if called while a
// coroutine is executing.
func (e *Engine) warp(t uint64) {
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

// Quiescent reports whether every shard of the cluster has drained: no
// live coroutines and no pending events. The error names the first
// live entity, for diagnostics when a snapshot is refused.
func (c *Cluster) Quiescent() error {
	for i, e := range c.engines {
		if err := e.quiescent(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Warp advances every shard's idle clocks to t, as if the cluster had
// already simulated up to that time. It is the restore half of a
// quiescent snapshot: a forked machine warps its fresh cluster to the
// parent's captured time so continuation work dispatches at the same
// virtual instant on both.
func (c *Cluster) Warp(t uint64) {
	for _, e := range c.engines {
		e.warp(t)
	}
}
