package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// The engine's queue holds its entries by value and keeps its capacity
// from run to run, so scheduling allocates nothing once the queue has
// grown. These tests attack the one way reusing that capacity can go
// wrong — stale bytes from a previous run leaking into the schedule —
// and the zero-allocation claim.

// renderObs renders only what the simulation can observe (dispatch
// trace plus the records), excluding now/steps so runs on engines
// with different histories are comparable.
func renderObs(s *scenario) string {
	return fmt.Sprintf("trace:%s\nrecs:%s", strings.Join(s.trace, " "), strings.Join(s.recs, " "))
}

const poolTestTransit = 1000

// relay schedules a chain of deliveries over four hop labels: each hop
// records itself and forwards to the next one transit time later.
func relay(s *scenario, label string, t0 uint64, hops int) {
	e := s.e
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

// buildPoolPhase loads the queue: dense tick chains plus relays.
func buildPoolPhase(s *scenario, label string, t0 uint64) {
	for i := 0; i < 4; i++ {
		s.tickChain(fmt.Sprintf("%st%d", label, i), t0+uint64(i)*137+1, 773, 40)
	}
	relay(s, label+"r", t0+11, 24)
	relay(s, label+"q", t0+503, 24)
}

// TestPooledBuffersDirtyReuse runs a workload on an engine whose queue
// retains the capacity a previous run grew it to and compares every
// observable against a pristine engine running only that workload at
// the same virtual times. Any stale byte surviving in the reused slots
// would shift the schedule.
func TestPooledBuffersDirtyReuse(t *testing.T) {
	const phase2At = 400_000
	dirty := newScenario()
	buildPoolPhase(dirty, "p1", 1)
	if err := dirty.e.Run(math.MaxUint64); err != nil {
		t.Fatalf("poison run: %v", err)
	}
	if len(dirty.e.queue) != 0 || cap(dirty.e.queue) == 0 {
		t.Fatal("poison phase left no drained queue capacity; the test exercises nothing")
	}
	dirty.trace, dirty.recs = nil, nil
	buildPoolPhase(dirty, "p2", phase2At)
	if err := dirty.e.Run(math.MaxUint64); err != nil {
		t.Fatalf("dirty run: %v", err)
	}

	fresh := newScenario()
	buildPoolPhase(fresh, "p2", phase2At)
	if err := fresh.e.Run(math.MaxUint64); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if got, want := renderObs(dirty), renderObs(fresh); got != want {
		t.Fatalf("run on a reused queue diverges from a fresh engine:\ndirty: %s\nfresh: %s", got, want)
	}
}

// TestStepPathZeroAlloc is the headline hot-path claim as a hard test:
// steady-state stepping with no trace installed performs zero heap
// allocations per scheduling decision, for coroutine dispatches and for
// a self-rescheduling event chain alike.
func TestStepPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	e := &Engine{}
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
	fired := 0
	var tick func()
	tick = func() {
		fired++
		e.ScheduleAt(e.Now()+7, tick)
	}
	e.ScheduleAt(0, tick)
	e.MaxSteps = 1 << 12
	_ = e.Run(math.MaxUint64) // warm: every coroutine started, queue at steady state
	warm := fired
	avg := testing.AllocsPerRun(16, func() {
		e.MaxSteps += 256
		_ = e.Run(math.MaxUint64)
	})
	if avg != 0 {
		t.Fatalf("engine step path allocates: %.2f allocs per 256-step run, want 0", avg)
	}
	if fired == warm {
		t.Fatal("no event fired in the measured runs; the test exercises only dispatches")
	}
}
