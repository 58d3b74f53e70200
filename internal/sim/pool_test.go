package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The hot path recycles executed event records through the engine's
// free list. These tests attack the one way pooling can go wrong —
// stale bytes from a previous run leaking into the schedule — and the
// zero-allocation claim the pool exists for.

// renderObs renders only what the simulation can observe (dispatch
// trace plus the records), excluding now/steps so runs on clusters
// with different histories are comparable.
func renderObs(s *clusterScenario) string {
	return fmt.Sprintf("trace:%s\nrecs:%s", strings.Join(s.trace, " "), strings.Join(s.recs, " "))
}

const poolTestTransit = 1000

// relay schedules a chain of deliveries over four hop labels: each hop
// records itself and forwards to the next one transit time later.
func relay(s *clusterScenario, label string, t0 uint64, hops int) {
	e := s.c.Engine()
	var hop func(slot int, at uint64, left int)
	hop = func(slot int, at uint64, left int) {
		s.rec(fmt.Sprintf("%s%d", label, slot), at)
		if left == 0 {
			return
		}
		next := (slot + 1) % 4
		e.DeliverAt(at+poolTestTransit, func() {
			hop(next, at+poolTestTransit, left-1)
		})
	}
	e.ScheduleAt(t0, func() { hop(0, t0, hops) })
}

// buildPoolPhase loads the event pool: dense tick chains plus relays.
func buildPoolPhase(s *clusterScenario, label string, t0 uint64) {
	for i := 0; i < 4; i++ {
		s.tickChain(fmt.Sprintf("%st%d", label, i), t0+uint64(i)*137+1, 773, 40)
	}
	relay(s, label+"r", t0+11, 24)
	relay(s, label+"q", t0+503, 24)
}

// TestPooledBuffersDirtyReuse runs a workload on a cluster whose event
// pool is saturated with a previous run's recycled records and compares
// every observable against a pristine cluster running only that
// workload at the same virtual times. Any stale byte surviving recycling
// would shift the schedule.
func TestPooledBuffersDirtyReuse(t *testing.T) {
	const phase2At = 400_000
	dirty := newClusterScenario()
	buildPoolPhase(dirty, "p1", 1)
	if err := dirty.c.Run(math.MaxUint64); err != nil {
		t.Fatalf("poison run: %v", err)
	}
	if len(dirty.c.Engine().evFree) == 0 {
		t.Fatal("poison phase recycled no events; the test exercises nothing")
	}
	dirty.trace, dirty.recs = nil, nil
	buildPoolPhase(dirty, "p2", phase2At)
	if err := dirty.c.Run(math.MaxUint64); err != nil {
		t.Fatalf("dirty run: %v", err)
	}

	fresh := newClusterScenario()
	buildPoolPhase(fresh, "p2", phase2At)
	if err := fresh.c.Run(math.MaxUint64); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if got, want := renderObs(dirty), renderObs(fresh); got != want {
		t.Fatalf("dirty-pool run diverges from fresh engine:\ndirty: %s\nfresh: %s", got, want)
	}
}

// TestStepPathZeroAlloc is the headline hot-path claim as a hard test:
// steady-state stepping with no trace installed performs zero heap
// allocations per scheduling decision.
func TestStepPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	c, e := newSerial()
	for i := 0; i < 8; i++ {
		clk := NewClock("c")
		co := e.NewCoro("w", func(ctx *Ctx) {
			for {
				ctx.Advance(10)
				ctx.Reschedule()
			}
		})
		e.UnparkOn(co, clk)
	}
	c.MaxSteps = 1 << 12
	_ = c.Run(math.MaxUint64) // warm: every coroutine started, runq at steady state
	avg := testing.AllocsPerRun(16, func() {
		c.MaxSteps += 256
		_ = c.Run(math.MaxUint64)
	})
	if avg != 0 {
		t.Fatalf("engine step path allocates: %.2f allocs per 256-step run, want 0", avg)
	}
}
