package sim

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"vpp/internal/leakcheck"
)

// releaseProbe records what the coroutines of a release scenario ran.
// Close must leave it exactly as the last Run did: a released coroutine
// runs no simulated code.
type releaseProbe struct {
	boundedIters  int  // laps of the bounded coroutine's endless loop
	finished      int  // coroutines that ran to completion
	afterPark     bool // the parked coroutine got past Park
	afterDeferred bool // the deferred charge returned
	unstartedRan  bool // a never-dispatched coroutine ran
}

// releaseBound is where the scenario's Run stops: past the first grid
// boundary, before the second.
const releaseBound = gridQuantum + gridQuantum/2

// buildRelease gives e one coroutine in each state Close has to handle
// once Run(releaseBound) returns: parked, runnable beyond the bound,
// parked inside a deferred charge, unparked but never dispatched, never
// unparked, and finished.
func buildRelease(e *Engine) *releaseProbe {
	p := &releaseProbe{}
	e.UnparkOn(e.NewCoro("parked", func(ctx *Ctx) {
		ctx.Advance(10)
		ctx.Park()
		p.afterPark = true
	}), NewClock("parked"))
	e.UnparkOn(e.NewCoro("bounded", func(ctx *Ctx) {
		for {
			ctx.Advance(gridQuantum / 4)
			p.boundedIters++
		}
	}), NewClock("bounded"))
	e.UnparkOn(e.NewCoro("deferred", func(ctx *Ctx) {
		defer func() {
			ctx.Advance(2 * gridQuantum)
			p.afterDeferred = true
		}()
		ctx.Advance(1)
	}), NewClock("deferred"))
	late := NewClock("late")
	late.AdvanceTo(2 * releaseBound)
	e.UnparkOn(e.NewCoro("late", func(*Ctx) { p.unstartedRan = true }), late)
	e.NewCoro("never", func(*Ctx) { p.unstartedRan = true })
	e.UnparkOn(e.NewCoro("finished", func(ctx *Ctx) {
		ctx.Advance(5)
		p.finished++
	}), NewClock("finished"))
	return p
}

// startedLive counts e's coroutines that have a runtime coroutine and
// have not finished.
func startedLive(e *Engine) int {
	n := 0
	for _, co := range e.coros {
		if co.stop != nil && !co.done {
			n++
		}
	}
	return n
}

// TestCloseReleasesCoroutines runs the release scenario, closes the
// engine, and requires every goroutine it started to exit without
// running any more simulated code.
func TestCloseReleasesCoroutines(t *testing.T) {
	// The one subtest is named for the machine's one engine, as it was
	// when a machine could be split over several.
	t.Run("shards_1", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := &Engine{}
		p := buildRelease(e)
		if err := e.Run(releaseBound); err != nil {
			t.Fatal(err)
		}
		// The parked, bounded and deferred coroutines are suspended in yield.
		if n := startedLive(e); n != 3 {
			t.Fatalf("%d started live coroutines before Close, want 3", n)
		}
		if p.finished != 1 || p.boundedIters == 0 || p.afterPark || p.afterDeferred || p.unstartedRan {
			t.Fatalf("the scenario did not reach its release states: %+v", *p)
		}
		before := *p
		e.Close()
		leakcheck.Wait(t, base)
		if *p != before {
			t.Fatalf("released coroutines ran simulated code: %+v, was %+v", *p, before)
		}
		if n := startedLive(e); n != 0 {
			t.Fatalf("%d started coroutines still live after Close", n)
		}
	})
}

// TestCloseTwiceThenRun pins the lifecycle edges: a second Close is a
// no-op and Run after Close panics.
func TestCloseTwiceThenRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := &Engine{}
	buildRelease(e)
	if err := e.Run(releaseBound); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	leakcheck.Wait(t, base)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Run after Close") {
			t.Fatalf("Run after Close: recovered %v, want a Run after Close panic", r)
		}
	}()
	e.Run(math.MaxUint64)
}

// TestCloseWithoutRun closes an engine that never ran: no coroutine has
// started, so there is nothing to release.
func TestCloseWithoutRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := &Engine{}
	p := buildRelease(e)
	e.Close()
	leakcheck.Wait(t, base)
	if *p != (releaseProbe{}) {
		t.Fatalf("Close ran coroutines of an engine that never ran: %+v", *p)
	}
}

// explode is the panicking frame the panic tests look for.
//
//go:noinline
func explode() { panic("sim test: coroutine exploded") }

// explodeAt is where the release scenario's extra coroutine panics: on
// the far side of the first grid boundary, so the other coroutines have
// reached their release states.
const explodeAt = gridQuantum + gridQuantum/4

// TestRunPanicReachesCaller panics a coroutine in the release scenario
// and requires the panic to reach Run's caller as a *Panic that names
// the coroutine, its clock and the panicking frame. Close must then
// release every other coroutine and leave no goroutine behind.
func TestRunPanicReachesCaller(t *testing.T) {
	// Named for the one engine, like TestCloseReleasesCoroutines.
	t.Run("shards_1", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := &Engine{}
		buildRelease(e)
		e.UnparkOn(e.NewCoro("boom", func(ctx *Ctx) {
			ctx.Advance(explodeAt)
			explode()
		}), NewClock("boom"))
		p := runPanic(e)
		if p == nil {
			t.Fatal("Run returned without the coroutine's panic")
		}
		if p.Coro != "boom" || p.At != explodeAt || p.Value != "sim test: coroutine exploded" {
			t.Fatalf("panic %q at %d with %v, want boom at %d with the exploded value", p.Coro, p.At, p.Value, uint64(explodeAt))
		}
		if !strings.Contains(p.Stack, "sim.explode(") || !strings.Contains(p.Error(), "sim.explode(") {
			t.Fatalf("panic stack lacks the panicking frame:\n%s", p.Stack)
		}
		for _, co := range e.coros {
			if co.name == "boom" {
				t.Fatal("the engine still holds the panicked coroutine")
			}
		}
		e.Close()
		leakcheck.Wait(t, base)
		if n := startedLive(e); n != 0 {
			t.Fatalf("%d started coroutines still live after Close", n)
		}
	})
}

// runPanic runs e to releaseBound and returns the *Panic Run raised, or
// nil if it returned.
func runPanic(e *Engine) (p *Panic) {
	defer func() { p, _ = recover().(*Panic) }()
	e.Run(releaseBound)
	return nil
}

// TestRunPanicKeepsStack checks that a coroutine's panic nobody
// recovers still kills the process with the original value and the
// panicking frame on its stack, and that the Close deferred on the way
// out does not hang. The crash happens in a child copy of the test
// binary, on a plain goroutine: testing's own recover would otherwise
// add a [recovered] line of its own.
func TestRunPanicKeepsStack(t *testing.T) {
	if os.Getenv("SIM_RELEASE_PANIC_CHILD") == "1" {
		e := &Engine{}
		e.UnparkOn(e.NewCoro("parked", func(ctx *Ctx) {
			ctx.Advance(1)
			ctx.Park()
		}), NewClock("cpu1"))
		e.UnparkOn(e.NewCoro("boom", func(ctx *Ctx) {
			ctx.Advance(1)
			explode()
		}), NewClock("cpu0"))
		returned := make(chan struct{})
		go func() {
			defer e.Close()
			e.Run(math.MaxUint64)
			close(returned)
		}()
		<-returned
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunPanicKeepsStack$", "-test.timeout=2m")
	cmd.Env = append(os.Environ(), "SIM_RELEASE_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived a coroutine panic:\n%s", out)
	}
	for _, want := range []string{"panic: sim test: coroutine exploded", "sim.explode("} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("child output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "[recovered]") {
		t.Fatalf("the coroutine panic was recovered and re-raised:\n%s", out)
	}
}
