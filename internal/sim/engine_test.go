package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleCoroAdvances(t *testing.T) {
	e := &Engine{}
	clk := NewClock("cpu0")
	var end uint64
	co := e.NewCoro("worker", func(ctx *Ctx) {
		for i := 0; i < 10; i++ {
			ctx.Advance(5)
		}
		end = ctx.Now()
	})
	e.UnparkOn(co, clk)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if end != 50 {
		t.Fatalf("end time = %d, want 50", end)
	}
	if !co.Done() {
		t.Fatal("coro not done")
	}
}

func TestTwoClocksInterleaveByTime(t *testing.T) {
	e := &Engine{}
	fast := NewClock("fast")
	slow := NewClock("slow")
	var order []string
	mk := func(name string, cost uint64, clk *Clock) {
		co := e.NewCoro(name, func(ctx *Ctx) {
			for i := 0; i < 4; i++ {
				ctx.Advance(cost)
				order = append(order, name)
			}
		})
		e.UnparkOn(co, clk)
	}
	mk("a", 10, fast)
	mk("b", 25, slow)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	// Both coros fit inside one grid slice, so each runs its slice to
	// completion in activation order: slice boundaries are intrinsic to
	// each coroutine's own trajectory, never induced by a neighbour's
	// clock (that coupling would make the interleaving depend on which
	// entities share the engine).
	want := []string{"a", "a", "a", "a", "b", "b", "b", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := &Engine{}
	c0 := NewClock("cpu0")
	c1 := NewClock("cpu1")
	var got uint64
	sleeper := e.NewCoro("sleeper", func(ctx *Ctx) {
		ctx.Park()
		got = ctx.Now()
	})
	waker := e.NewCoro("waker", func(ctx *Ctx) {
		ctx.Advance(100)
		c1.AdvanceTo(ctx.Now())
		ctx.Engine().UnparkOn(sleeper, c1)
	})
	e.UnparkOn(sleeper, c1)
	e.UnparkOn(waker, c0)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if got < 100 {
		t.Fatalf("sleeper woke at %d, want >= 100", got)
	}
}

func TestEventsFireInOrder(t *testing.T) {
	e := &Engine{}
	var fired []uint64
	e.ScheduleAt(30, func() { fired = append(fired, 30) })
	e.ScheduleAt(10, func() { fired = append(fired, 10) })
	e.ScheduleAt(20, func() { fired = append(fired, 20) })
	e.ScheduleAt(10, func() { fired = append(fired, 11) }) // same time, later seq
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 11, 20, 30}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEventInterleavesWithCoro(t *testing.T) {
	e := &Engine{}
	clk := NewClock("cpu0")
	var at uint64
	e.ScheduleAt(15, func() { at = e.Now() })
	var atDuringSlice uint64
	co := e.NewCoro("w", func(ctx *Ctx) {
		ctx.Advance(20) // crosses 15 inside one slice; no induced yield
		atDuringSlice = at
	})
	e.UnparkOn(co, clk)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	// A pending event does not split a running slice: the coroutine was
	// activated at time 0, before the event's time, so the whole slice
	// orders before it. The event still fires at its own time once the
	// engine regains control.
	if atDuringSlice != 0 {
		t.Fatalf("event fired inside the slice (saw at=%d)", atDuringSlice)
	}
	if at != 15 {
		t.Fatalf("event fired at %d, want 15", at)
	}
}

// TestEventSplitsOwnSchedulersSlice pins the intrinsic-yield rule: when
// the running coroutine itself schedules an event below its horizon,
// the shrink point comes from its own code, so yielding there does not
// depend on its neighbours — and the event fires before the coroutine
// passes it.
func TestEventSplitsOwnSchedulersSlice(t *testing.T) {
	e := &Engine{}
	clk := NewClock("cpu0")
	var at uint64
	var sawEventBefore bool
	co := e.NewCoro("w", func(ctx *Ctx) {
		ctx.Advance(10)
		e.ScheduleAt(15, func() { at = e.Now() })
		ctx.Advance(10) // crosses 15; must yield so the event fires at 15
		sawEventBefore = at == 15
	})
	e.UnparkOn(co, clk)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if !sawEventBefore {
		t.Fatalf("event fired at %d, want 15 before coro passed it", at)
	}
}

func TestRunUntilBound(t *testing.T) {
	e := &Engine{}
	clk := NewClock("cpu0")
	n := 0
	co := e.NewCoro("w", func(ctx *Ctx) {
		for {
			ctx.Advance(10)
			n++
		}
	})
	e.UnparkOn(co, clk)
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	// The bound gates slice starts, not slice contents: the coroutine
	// activated at 0 runs its whole first grid slice, then the next
	// slice would start past 100 and Run returns.
	if n != 6553 {
		t.Fatalf("ran %d steps, want one full grid slice (6553)", n)
	}
	if e.Now() > 100 {
		t.Fatalf("Now = %d after Run(100), want a schedule point <= 100", e.Now())
	}
}

func TestMaxStepsGuard(t *testing.T) {
	e := &Engine{}
	e.MaxSteps = 50
	clk := NewClock("cpu0")
	co := e.NewCoro("spin", func(ctx *Ctx) {
		for {
			ctx.Advance(1)
			ctx.Reschedule()
		}
	})
	e.UnparkOn(co, clk)
	if err := e.Run(math.MaxUint64); err != ErrMaxSteps {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

func TestUnparkRunnablePanics(t *testing.T) {
	e := &Engine{}
	clk := NewClock("cpu0")
	co := e.NewCoro("w", func(ctx *Ctx) {})
	e.UnparkOn(co, clk)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.UnparkOn(co, clk)
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		e := &Engine{}
		var trace []int
		for i := 0; i < 8; i++ {
			i := i
			clk := NewClock("cpu")
			co := e.NewCoro("w", func(ctx *Ctx) {
				for j := 0; j < 5; j++ {
					ctx.Advance(uint64(3 + i%4))
					trace = append(trace, i)
				}
			})
			e.UnparkOn(co, clk)
		}
		if err := e.Run(math.MaxUint64); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestClockNeverMovesBackward(t *testing.T) {
	c := NewClock("x")
	c.AdvanceTo(100)
	c.AdvanceTo(50)
	if c.Now() != 100 {
		t.Fatalf("clock = %d, want 100", c.Now())
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestRandIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRand(seed)
		for i := 0; i < 32; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		p := NewRand(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEventHeapProperty pushes a random mix of coroutine and event
// entries and requires the queue to pop every one of them in (at, key)
// order: time first, then at equal times every event before every
// coroutine, events by seq and coroutines by id.
func TestEventHeapProperty(t *testing.T) {
	f := func(times []uint16, coros []bool) bool {
		var q queue
		co := &Coro{}
		for i, tm := range times {
			ent := entry{at: uint64(tm), key: uint64(i + 1)}
			if i < len(coros) && coros[i] {
				ent.key |= coroBit
				ent.co = co
			}
			q.push(ent)
		}
		var prev entry
		for n := 0; n < len(times); n++ {
			if len(q) == 0 {
				return false
			}
			ent := q[0]
			q.pop()
			if n > 0 && ent.at == prev.at {
				if prev.co != nil && ent.co == nil {
					return false // an event after a coroutine
				}
				if (prev.co != nil) == (ent.co != nil) && ent.key <= prev.key {
					return false
				}
			}
			if ent.at < prev.at {
				return false
			}
			prev = ent
		}
		return len(q) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQueueOrder pins the queue's order rule on one mixed schedule.
// Three coroutines are unparked at time 0 before two events are
// registered at 0 and one at 20. a and c share a clock, and a advances
// it to 50 while c is queued, so c's entry is stale when it reaches the
// top. Events run before coroutines at equal times, events in
// registration order and coroutines in creation order, and c runs at
// its live clock: after the event at 20.
func TestQueueOrder(t *testing.T) {
	e := &Engine{}
	shared, own := NewClock("shared"), NewClock("own")
	var order []string
	coro := func(name string, clk *Clock, work uint64) {
		e.UnparkOn(e.NewCoro(name, func(ctx *Ctx) {
			order = append(order, name)
			ctx.Advance(work)
		}), clk)
	}
	coro("a", shared, 50)
	coro("b", own, 0)
	coro("c", shared, 0)
	for _, ev := range []struct {
		name string
		at   uint64
	}{{"ev0a", 0}, {"ev0b", 0}, {"ev20", 20}} {
		e.ScheduleAt(ev.at, func() { order = append(order, ev.name) })
	}
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "ev0a ev0b a b ev20 c"; got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// TestNameIDInterning pins the engine's name table: coroutines with one
// name share one index, indices are dense in order of first creation,
// Engine.NameID of a name no coroutine has interns it, and the trace
// hook reports each activation's index with its name.
func TestNameIDInterning(t *testing.T) {
	e := &Engine{}
	a1 := e.NewCoro("a", func(*Ctx) {})
	b := e.NewCoro("b", func(*Ctx) {})
	a2 := e.NewCoro("a", func(*Ctx) {})
	if a1.NameID() != 0 || b.NameID() != 1 || a2.NameID() != 0 {
		t.Fatalf("NameID a=%d b=%d a=%d, want 0 1 0", a1.NameID(), b.NameID(), a2.NameID())
	}
	if got := e.NameID("b"); got != 1 {
		t.Fatalf(`NameID("b") = %d, want 1`, got)
	}
	if got := e.NameID("c"); got != 2 {
		t.Fatalf(`NameID("c") of an unseen name = %d, want 2`, got)
	}
	if got := e.NameID("c"); got != 2 {
		t.Fatalf(`second NameID("c") = %d, want 2`, got)
	}
	if c := e.NewCoro("c", func(*Ctx) {}); c.NameID() != 2 {
		t.Fatalf("coroutine named after an interned name has index %d, want 2", c.NameID())
	}
	if d := e.NewCoro("d", func(*Ctx) {}); d.NameID() != 3 {
		t.Fatalf("next new name has index %d, want 3", d.NameID())
	}

	var got []string
	e.SetTrace(func(name string, id int, at uint64) {
		got = append(got, name+"#"+string(rune('0'+id)))
	})
	clk := NewClock("cpu0")
	for _, co := range []*Coro{a1, b, a2} {
		e.UnparkOn(co, clk)
	}
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if want := "a#0 b#1 a#0"; strings.Join(got, " ") != want {
		t.Fatalf("trace %q, want %q", strings.Join(got, " "), want)
	}
	e.Close()
}

// TestAttentionLimit pins the four ways a context's attention limit
// moves: resuming drops it to 0, Rearm raises it to just past the
// horizon, every horizon shrink (ScheduleAt, Stream.At, UnparkOn)
// lowers it with the horizon and never raises it, and Look drops the
// running coroutine's to 0. Add reports true whenever Advance would
// yield, and after Rearm only then.
func TestAttentionLimit(t *testing.T) {
	e := &Engine{}
	s := e.NewStream(func() {})
	var fails []string
	check := func(what string, ok bool) {
		if !ok {
			fails = append(fails, what)
		}
	}
	co := e.NewCoro("worker", func(ctx *Ctx) {
		check("the first resume drops the limit", ctx.limit == 0 && ctx.Add(0))
		ctx.Rearm()
		check("Rearm raises the limit past the horizon", ctx.limit == ctx.horizon+1)
		check("Add up to the horizon", !ctx.Add(ctx.horizon-ctx.Now()))
		check("Add past the horizon", ctx.Add(1))
		ctx.Advance(0)
		check("a resume after a yield drops the limit", ctx.limit == 0 && ctx.horizon > ctx.Now())
		ctx.Rearm()
		e.Look()
		check("Look drops the limit", ctx.limit == 0)
		e.ScheduleAt(ctx.Now()+1, func() {})
		check("a shrink keeps a dropped limit", ctx.limit == 0)
		ctx.Advance(2)
		for i, shrink := range []func(at uint64){
			func(at uint64) { e.ScheduleAt(at, func() {}) },
			func(at uint64) { s.At(at) },
			func(at uint64) {
				clk := NewClock("other")
				clk.AdvanceTo(at)
				e.UnparkOn(e.NewCoro("other", func(*Ctx) {}), clk)
			},
		} {
			ctx.Rearm()
			at := ctx.Now() + 10
			shrink(at)
			check(fmt.Sprintf("shrink %d lowers the horizon and the limit", i), ctx.horizon == at && ctx.limit == at+1)
			check(fmt.Sprintf("shrink %d: Add up to the new horizon", i), !ctx.Add(10))
			check(fmt.Sprintf("shrink %d: Add past the new horizon", i), ctx.Add(1))
			ctx.Advance(0)
		}
	})
	e.UnparkOn(co, NewClock("cpu0"))
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if !co.Done() || len(fails) != 0 {
		t.Fatalf("done %v, failed checks %q", co.Done(), fails)
	}
}
