package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// clusterScenario builds one simulation and renders a fingerprint of
// everything observable: the dispatch trace, every event firing and
// the final clock and step count. Each test asserts the fingerprint is
// byte-identical whether the run is driven by one Run call or cut into
// several (checkCutInvariant).
type clusterScenario struct {
	c     *Cluster
	trace []string
	recs  []string // "label@time", in firing order
}

func newClusterScenario() *clusterScenario {
	s := &clusterScenario{c: NewCluster()}
	s.c.SetTrace(func(name string, at uint64) {
		s.trace = append(s.trace, fmt.Sprintf("%s@%d", name, at))
	})
	return s
}

func (s *clusterScenario) rec(label string, at uint64) {
	s.recs = append(s.recs, fmt.Sprintf("%s@%d", label, at))
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
	return fmt.Sprintf("trace:%s\nrecs:%s\nnow:%d steps:%d",
		strings.Join(s.trace, " "), strings.Join(s.recs, " "), s.c.Now(), s.c.Steps())
}

// checkCutInvariant renders the scenario from one straight run, then
// from a run cut into three Run calls (at a third and two thirds of the
// straight run's final time). Both must match; it returns the
// fingerprint. Stopping and resuming a run changes nothing it does.
func checkCutInvariant(t *testing.T, build func() *clusterScenario) string {
	t.Helper()
	s := build()
	want := s.fingerprint(t)
	cuts := []uint64{s.c.Now() / 3, 2 * s.c.Now() / 3}
	if got := build().fingerprint(t, cuts...); got != want {
		t.Fatalf("run cut at %v diverges from a straight run:\nwant: %s\ngot:  %s", cuts, want, got)
	}
	return want
}

// tickChain schedules a self-rescheduling event chain: n firings spaced
// step cycles apart, starting at t0.
func (s *clusterScenario) tickChain(label string, t0, step uint64, n int) {
	e := s.c.Engine()
	var tick func()
	left := n
	at := t0
	tick = func() {
		s.rec(label, at)
		left--
		if left > 0 {
			at += step
			e.ScheduleAt(at, tick)
		}
	}
	e.ScheduleAt(t0, tick)
}

// TestClusterZeroDelayDelivery: a coroutine scheduling an event at its
// own current instant (zero delay) must see it fire at exactly that
// virtual time.
func TestClusterZeroDelayDelivery(t *testing.T) {
	build := func() *clusterScenario {
		s := newClusterScenario()
		e := s.c.Engine()
		clk := NewClock("zero")
		co := e.NewCoro("zero", func(ctx *Ctx) {
			ctx.Advance(300)
			at := ctx.Now()
			ctx.Engine().ScheduleAt(at, func() { s.rec("fire", at) })
			ctx.Advance(300)
			s.rec("after", ctx.Now())
		})
		e.UnparkOn(co, clk)
		s.tickChain("bg", 50, 900, 6)
		return s
	}
	if got := checkCutInvariant(t, build); !strings.Contains(got, "fire@300") {
		t.Fatalf("zero-delay event did not fire at its scheduling instant: %s", got)
	}
}

// TestClusterPingPong: two coroutines wake each other for many rounds.
// Each activation records, works, sends the peer a message through
// DeliverAt that unparks it one transit time later, and parks, so the
// cut runs of checkCutInvariant carry deliveries and dispatches past
// each cut. Every activation also registers a local event at one common
// time after the last round; those must fire in registration order,
// also when a cut falls between two of the registrations.
func TestClusterPingPong(t *testing.T) {
	const (
		transit = 1000
		rounds  = 20
		late    = 25_000
	)
	build := func() *clusterScenario {
		s := newClusterScenario()
		e := s.c.Engine()
		var (
			coros [2]*Coro
			clks  [2]*Clock
		)
		for i := range coros {
			name := fmt.Sprintf("p%d", i)
			clks[i] = NewClock(name)
			fired := 0
			coros[i] = e.NewCoro(name, func(ctx *Ctx) {
				peer := 1 - i
				for r := 0; r < rounds; r++ {
					s.rec(fmt.Sprintf("%s.%d", name, r), ctx.Now())
					ctx.Engine().ScheduleAt(late, func() {
						fired++
						s.rec(fmt.Sprintf("%s.late%d.%d", name, r, fired), late)
					})
					ctx.Advance(uint64(100 + 30*i))
					at := ctx.Now() + transit
					ctx.Engine().DeliverAt(at, func() {
						clks[peer].AdvanceTo(at)
						e.UnparkOn(coros[peer], clks[peer])
					})
					ctx.Park()
				}
			})
			e.UnparkOn(coros[i], clks[i])
		}
		return s
	}
	got := checkCutInvariant(t, build)
	if !strings.Contains(got, fmt.Sprintf("p1.%d@", rounds-1)) {
		t.Fatalf("the exchange stopped before round %d: %s", rounds-1, got)
	}
}

// TestDeliverAtKeepsSendersSlice pins the interconnect rule: a delivery
// due inside the sender's current slice does not cut the slice, as a
// ScheduleAt at the same time does; it fires once the slice ends.
func TestDeliverAtKeepsSendersSlice(t *testing.T) {
	for _, tc := range []struct {
		name      string
		deliver   bool
		wantSplit bool
	}{{"DeliverAt", true, false}, {"ScheduleAt", false, true}} {
		c, e := newSerial()
		clk := NewClock("cpu0")
		var at uint64
		var split bool
		co := e.NewCoro("w", func(ctx *Ctx) {
			ctx.Advance(10)
			fire := func() { at = e.Now() }
			if tc.deliver {
				e.DeliverAt(15, fire)
			} else {
				e.ScheduleAt(15, fire)
			}
			ctx.Advance(10) // crosses 15
			split = at == 15
		})
		e.UnparkOn(co, clk)
		if err := c.Run(math.MaxUint64); err != nil {
			t.Fatal(err)
		}
		if split != tc.wantSplit || at != 15 {
			t.Fatalf("%s: slice split %v (want %v), event fired at %d (want 15)", tc.name, split, tc.wantSplit, at)
		}
	}
}
