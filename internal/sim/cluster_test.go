package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// clusterScenario builds one simulation over a variable shard count and
// renders a fingerprint of everything observable: the merged dispatch
// trace, every event firing (collected per shard, so recording is free
// of cross-goroutine writes, then merged by unique virtual time), and
// the final clock and step count. Each edge-case test asserts the
// fingerprint is byte-identical across shard counts and across Run
// calls — the cluster's core contract (checkShardInvariant).
type clusterScenario struct {
	c     *Cluster
	trace []string
	recs  [][]string // per shard: "label@time", times unique by design
}

func newClusterScenario(shards int) *clusterScenario {
	s := &clusterScenario{c: NewCluster(shards), recs: make([][]string, shards)}
	s.c.SetTrace(func(name string, at uint64) {
		s.trace = append(s.trace, fmt.Sprintf("%s@%d", name, at))
	})
	return s
}

// rec returns a recorder confined to shard i's timeline.
func (s *clusterScenario) rec(i int, label string, at uint64) {
	s.recs[i] = append(s.recs[i], fmt.Sprintf("%s@%d", label, at))
}

// fingerprint runs the scenario to the end, stopping first at each cut
// (a Run call per cut, then one to math.MaxUint64), and renders it.
func (s *clusterScenario) fingerprint(t *testing.T, cuts ...uint64) string {
	t.Helper()
	for _, cut := range cuts {
		if err := s.c.Run(cut); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.c.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, r := range s.recs {
		all = append(all, r...)
	}
	// Order by (time, label): the relative order of equal-time records
	// on different shards is not observable from inside the recorders,
	// so the fingerprint must not depend on it.
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
	return fmt.Sprintf("trace:%s\nrecs:%s\nnow:%d steps:%d",
		strings.Join(s.trace, " "), strings.Join(all, " "), s.c.Now(), s.c.Steps())
}

// checkShardInvariant renders the scenario from one straight serial
// run, then from a serial run cut into three Run calls (at a third and
// two thirds of the straight run's final time), a straight run at
// shards shards and a cut one. All four must match; it returns the
// fingerprint. Stopping and resuming a run changes nothing it does.
func checkShardInvariant(t *testing.T, shards int, build func(shards int) *clusterScenario) string {
	t.Helper()
	s := build(1)
	want := s.fingerprint(t)
	cuts := []uint64{s.c.Now() / 3, 2 * s.c.Now() / 3}
	for _, r := range []struct {
		shards int
		cuts   []uint64
	}{{1, cuts}, {shards, nil}, {shards, cuts}} {
		if got := build(r.shards).fingerprint(t, r.cuts...); got != want {
			t.Fatalf("%d shard(s) cut at %v diverge from a straight serial run:\nwant: %s\ngot:  %s", r.shards, r.cuts, want, got)
		}
	}
	return want
}

// shardOf picks the owning engine, clamping to the shard count so the
// same build code runs one-sharded and many-sharded.
func (s *clusterScenario) shardOf(i int) *Engine {
	return s.c.Engine(i % s.c.Shards())
}

// tickChain schedules a self-rescheduling event chain on shard i: n
// firings spaced step cycles apart, starting at t0. Chains are how the
// scenarios keep a shard busy across many epochs without relying on
// coroutine slice lengths.
func (s *clusterScenario) tickChain(i int, label string, t0, step uint64, n int) {
	e := s.shardOf(i)
	var tick func()
	left := n
	at := t0
	tick = func() {
		s.rec(i%s.c.Shards(), label, at)
		left--
		if left > 0 {
			at += step
			e.ScheduleAt(at, tick)
		}
	}
	e.ScheduleAt(t0, tick)
}

// TestOneShardClusterIgnoresBound: a one-shard cluster has no
// cross-shard channel, so a registered latency bound must not cut its
// run into epochs — before or after Run, Bound leaves it unbounded.
func TestOneShardClusterIgnoresBound(t *testing.T) {
	c, _ := newSerial()
	c.Bound(1000)
	if err := c.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	c.Bound(500)
	if c.lookahead != math.MaxUint64 {
		t.Fatalf("one-shard cluster registered a %d-cycle lookahead", c.lookahead)
	}
}

// TestClusterEmptyShard: a shard with no entities at all must neither
// stall the barrier nor perturb the merged order.
func TestClusterEmptyShard(t *testing.T) {
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(1000)
		// Shards 0 and 2 get work; shard 1 (when present) stays empty.
		s.tickChain(0, "a", 100, 700, 10)
		s.tickChain(2, "b", 350, 900, 8)
		return s
	}
	checkShardInvariant(t, 3, build)
}

// TestClusterShardFinishesMidEpoch: one shard goes quiescent partway
// through an epoch while its peer keeps running for many more epochs;
// the finished shard must simply drop out of subsequent epochs.
func TestClusterShardFinishesMidEpoch(t *testing.T) {
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(1000)
		e := s.shardOf(1)
		clk := NewClock("short")
		co := e.NewCoro("short", func(ctx *Ctx) {
			ctx.Advance(450) // parks forever mid-first-epoch
			s.rec(1%shards, "done", ctx.Now())
		})
		e.UnparkOn(co, clk)
		s.tickChain(0, "long", 10, 800, 12) // ~10 epochs of work
		return s
	}
	checkShardInvariant(t, 2, build)
}

// TestClusterZeroLatencySameShardDelivery: a coroutine scheduling an
// event at its own current instant (zero delay, same shard) must see it
// fire at exactly that virtual time, sharded or not. Same-shard traffic
// is exempt from the cross-shard latency bound.
func TestClusterZeroLatencySameShardDelivery(t *testing.T) {
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(1000)
		e := s.shardOf(1)
		clk := NewClock("zero")
		co := e.NewCoro("zero", func(ctx *Ctx) {
			ctx.Advance(300)
			at := ctx.Now()
			ctx.Engine().ScheduleAt(at, func() { s.rec(1%shards, "fire", at) })
			ctx.Advance(300)
			s.rec(1%shards, "after", ctx.Now())
		})
		e.UnparkOn(co, clk)
		s.tickChain(0, "bg", 50, 900, 6)
		return s
	}
	if got := checkShardInvariant(t, 2, build); !strings.Contains(got, "fire@300") {
		t.Fatalf("zero-delay event did not fire at its scheduling instant: %s", got)
	}
}

// TestClusterInboxOnEpochBoundary: a cross-shard message whose delivery
// time is exactly cause + bound lands on the first cycle after the
// sending epoch — the boundary case of the lookahead rule. It must be
// injected at the barrier and fire at its exact virtual time, merged in
// the same position the serial engine runs it.
func TestClusterInboxOnEpochBoundary(t *testing.T) {
	const bound = 1000
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(bound)
		src, dst := s.shardOf(0), s.shardOf(1)
		clk := NewClock("sender")
		co := src.NewCoro("sender", func(ctx *Ctx) {
			at := ctx.Now() + bound // exactly the minimum legal distance
			ctx.Engine().ScheduleCrossAt(dst, at, func() { s.rec(1%shards, "inbox", at) })
			ctx.Advance(50)
		})
		src.UnparkOn(co, clk)
		// Competing local activity around the delivery instant on both
		// shards, so a mis-merged injection changes the fingerprint.
		s.tickChain(0, "s0", 500, 250, 6)
		s.tickChain(1, "s1", 600, 200, 8)
		return s
	}
	if got := checkShardInvariant(t, 2, build); !strings.Contains(got, "inbox@1000") {
		t.Fatalf("boundary message did not fire at cause+bound: %s", got)
	}
}

// TestClusterPingPong: two coroutines on two shards wake each other
// for many epochs. Each activation records, works for less than the
// bound, sends the peer a cross-shard message that unparks it one
// bound later, and parks. Both shards dispatch and exchange messages
// in every epoch, so the cut runs of checkShardInvariant carry cross-
// shard traffic and dispatches on both shards past each cut. Every
// activation also registers a local event at one common time after
// the last round; those must fire in registration order, also when a
// cut falls between two of the registrations.
func TestClusterPingPong(t *testing.T) {
	const (
		bound  = 1000
		rounds = 20
		late   = 25_000
	)
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(bound)
		var (
			engs  [2]*Engine
			coros [2]*Coro
			clks  [2]*Clock
		)
		for i := range coros {
			name := fmt.Sprintf("p%d", i)
			engs[i], clks[i] = s.shardOf(i), NewClock(name)
			fired := 0
			coros[i] = engs[i].NewCoro(name, func(ctx *Ctx) {
				peer := 1 - i
				for r := 0; r < rounds; r++ {
					s.rec(i%shards, fmt.Sprintf("%s.%d", name, r), ctx.Now())
					ctx.Engine().ScheduleAt(late, func() {
						fired++
						s.rec(i%shards, fmt.Sprintf("%s.late%d.%d", name, r, fired), late)
					})
					ctx.Advance(uint64(100 + 30*i))
					at := ctx.Now() + bound
					ctx.Engine().ScheduleCrossAt(engs[peer], at, func() {
						clks[peer].AdvanceTo(at)
						engs[peer].UnparkOn(coros[peer], clks[peer])
					})
					ctx.Park()
				}
			})
			engs[i].UnparkOn(coros[i], clks[i])
		}
		return s
	}
	got := checkShardInvariant(t, 2, build)
	if !strings.Contains(got, fmt.Sprintf("p1.%d@", rounds-1)) {
		t.Fatalf("the exchange stopped before round %d: %s", rounds-1, got)
	}
}
