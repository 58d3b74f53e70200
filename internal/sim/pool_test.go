package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// The pooled hot path recycles actRec logs, cross-shard outboxes and
// event nodes across epochs. These tests attack the one way pooling can
// go wrong — stale bytes from a previous epoch or a previous run
// leaking into the schedule — and the retention policy that keeps the
// pools bounded.

// renderObs renders only what the simulation can observe (merged
// dispatch trace plus the per-shard records), excluding now/steps so
// runs on clusters with different histories are comparable.
func renderObs(s *clusterScenario) string {
	var all []string
	for _, r := range s.recs {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool {
		li, ti, _ := strings.Cut(all[i], "@")
		lj, tj, _ := strings.Cut(all[j], "@")
		if len(ti) != len(tj) {
			return len(ti) < len(tj)
		}
		if ti != tj {
			return ti < tj
		}
		return li < lj
	})
	return fmt.Sprintf("trace:%s\nrecs:%s", strings.Join(s.trace, " "), strings.Join(all, " "))
}

const poolTestBound = 1000

// crossRing schedules a relay of cross-shard events over four shard
// slots: each hop records itself and forwards to the next slot one
// latency bound later. On fewer shards the slots fold onto the same
// engines (the direct path), so the ring exercises both delivery paths.
func crossRing(s *clusterScenario, label string, t0 uint64, hops int) {
	var hop func(slot int, at uint64, left int)
	hop = func(slot int, at uint64, left int) {
		s.rec(slot%s.c.Shards(), fmt.Sprintf("%s%d", label, slot), at)
		if left == 0 {
			return
		}
		next := (slot + 1) % 4
		s.shardOf(slot).ScheduleCrossAt(s.shardOf(next), at+poolTestBound, func() {
			hop(next, at+poolTestBound, left-1)
		})
	}
	s.shardOf(0).ScheduleAt(t0, func() { hop(0, t0, hops) })
}

// buildPoolPhase loads every pooled structure: dense local tick chains
// (action log, event free list) plus cross rings (outboxes) on all four
// shard slots.
func buildPoolPhase(s *clusterScenario, label string, t0 uint64) {
	for i := 0; i < 4; i++ {
		s.tickChain(i, fmt.Sprintf("%st%d", label, i), t0+uint64(i)*137+1, 773, 40)
	}
	crossRing(s, label+"r", t0+11, 24)
	crossRing(s, label+"q", t0+503, 24)
}

// TestPooledBuffersDirtyReuse runs a workload on a cluster whose pools
// are saturated with a previous run's recycled buffers and compares
// every observable against a pristine cluster running only that
// workload at the same virtual times. Any stale byte surviving the
// barrier resets would shift the schedule.
func TestPooledBuffersDirtyReuse(t *testing.T) {
	const phase2At = 400_000
	for _, shards := range []int{1, 4} {
		dirty := newClusterScenario(shards)
		dirty.c.Bound(poolTestBound)
		buildPoolPhase(dirty, "p1", 1)
		if err := dirty.c.Run(math.MaxUint64); err != nil {
			t.Fatalf("shards=%d poison run: %v", shards, err)
		}
		poisoned := false
		for _, st := range dirty.c.PoolStats() {
			if st.FreeEvents > 0 {
				poisoned = true
			}
		}
		if !poisoned {
			t.Fatalf("shards=%d: poison phase recycled no events; the test exercises nothing", shards)
		}
		dirty.trace = nil
		for i := range dirty.recs {
			dirty.recs[i] = nil
		}
		buildPoolPhase(dirty, "p2", phase2At)
		if err := dirty.c.Run(math.MaxUint64); err != nil {
			t.Fatalf("shards=%d dirty run: %v", shards, err)
		}

		fresh := newClusterScenario(shards)
		fresh.c.Bound(poolTestBound)
		buildPoolPhase(fresh, "p2", phase2At)
		if err := fresh.c.Run(math.MaxUint64); err != nil {
			t.Fatalf("shards=%d fresh run: %v", shards, err)
		}
		if got, want := renderObs(dirty), renderObs(fresh); got != want {
			t.Fatalf("shards=%d: dirty-pool run diverges from fresh engine:\ndirty: %s\nfresh: %s",
				shards, got, want)
		}
	}
}

// TestPoolStatsResetBetweenRuns: every per-epoch structure must be
// empty once Run returns — the same invariant cksan asserts at every
// epoch begin, visible here through the stats lens.
func TestPoolStatsResetBetweenRuns(t *testing.T) {
	s := newClusterScenario(4)
	s.c.Bound(poolTestBound)
	buildPoolPhase(s, "w", 1)
	if err := s.c.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	for _, st := range s.c.PoolStats() {
		if st.Acts != 0 || st.Subs != 0 || st.Outbox != 0 {
			t.Fatalf("shard %d: pooled buffers not reset after Run: acts=%d subs=%d outbox=%d",
				st.Shard, st.Acts, st.Subs, st.Outbox)
		}
	}
}

// TestPoolSpikeThenTrim: one epoch logging far more than poolRetain
// must not pin that capacity forever — after poolTrimAfter quiet
// epochs the logs and the event free list shrink back under the cap.
func TestPoolSpikeThenTrim(t *testing.T) {
	s := newClusterScenario(2)
	const bound = 100_000
	s.c.Bound(bound)
	e := s.c.Engine(0)
	// Spike: 3x the retention cap in events, all within the first epoch
	// window, so at least one epoch logs well past poolRetain.
	for i := 0; i < 3*poolRetain; i++ {
		e.ScheduleAt(uint64(1+i%(bound-2)), func() {})
	}
	// Quiet tail: one action per epoch for longer than the trim patience.
	s.tickChain(0, "q", 2*bound, bound, poolTrimAfter+4)
	if err := s.c.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	st := s.c.PoolStats()[0]
	if st.ActsCap > poolRetain {
		t.Fatalf("action log capacity %d still above poolRetain %d after %d quiet epochs",
			st.ActsCap, poolRetain, poolTrimAfter+4)
	}
	if st.FreeEvents > poolRetain {
		t.Fatalf("event free list holds %d nodes, above poolRetain %d", st.FreeEvents, poolRetain)
	}
	if st.Acts != 0 || st.Outbox != 0 {
		t.Fatalf("pooled buffers not reset after Run: acts=%d outbox=%d", st.Acts, st.Outbox)
	}
}

// TestStepPathZeroAlloc is the headline hot-path claim as a hard test:
// steady-state stepping of a one-shard cluster with no trace installed
// performs zero heap allocations per scheduling decision.
func TestStepPathZeroAlloc(t *testing.T) {
	if raceEnabled || sanEnabled {
		t.Skip("allocation counts are meaningless under -race / cksan instrumentation")
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
	_ = c.Run(math.MaxUint64) // warm: every coroutine started, runq and epoch scratch at steady state
	avg := testing.AllocsPerRun(16, func() {
		c.MaxSteps += 256
		_ = c.Run(math.MaxUint64)
	})
	if avg != 0 {
		t.Fatalf("engine step path allocates: %.2f allocs per 256-step run, want 0", avg)
	}
}

// TestEpochBarrierZeroAlloc: the sharded logged path — action logging,
// barrier merge, epoch dispatch — must also be allocation-free once the
// pools are warm.
func TestEpochBarrierZeroAlloc(t *testing.T) {
	if raceEnabled || sanEnabled {
		t.Skip("allocation counts are meaningless under -race / cksan instrumentation")
	}
	c := NewCluster(2)
	c.Bound(512)
	for s := 0; s < 2; s++ {
		e := c.Engine(s)
		at := uint64(s + 1)
		var tick func()
		tick = func() {
			at += 512
			e.ScheduleAt(at, tick)
		}
		e.ScheduleAt(at, tick)
	}
	c.MaxSteps = 1 << 12
	_ = c.Run(math.MaxUint64) // warm: pools and worker channels
	avg := testing.AllocsPerRun(16, func() {
		c.MaxSteps += 256
		_ = c.Run(math.MaxUint64)
	})
	if avg != 0 {
		t.Fatalf("epoch barrier path allocates: %.2f allocs per 256-step run, want 0", avg)
	}
}

// TestPoolCrossTrafficStress drives sustained cross-shard traffic over
// every shard pair concurrently — the -race job's target for the
// per-shard pools — and asserts shard-count invariance of the result.
func TestPoolCrossTrafficStress(t *testing.T) {
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(poolTestBound)
		for r := 0; r < 6; r++ {
			crossRing(s, fmt.Sprintf("r%d", r), uint64(1+r*211), 30)
		}
		for i := 0; i < 4; i++ {
			s.tickChain(i, fmt.Sprintf("t%d", i), uint64(17+i*97), 509, 60)
		}
		return s
	}
	serial := build(1).fingerprint(t)
	for _, shards := range []int{2, 4} {
		if got := build(shards).fingerprint(t); got != serial {
			t.Fatalf("cross-traffic run diverges at %d shards:\nserial: %s\nsharded: %s",
				shards, serial, got)
		}
	}
}
