package sim

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vpp/internal/leakcheck"
)

// releaseProbe records what one shard's coroutines of a release
// scenario ran (shards run concurrently, so each has its own). Close
// must leave it exactly as the last Run did: a released coroutine runs
// no simulated code.
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

// buildRelease gives every shard of c one coroutine in each state Close
// has to handle once Run(releaseBound) returns: parked, runnable beyond
// the bound, parked inside a deferred charge, unparked but never
// dispatched, never unparked, and finished. It returns one probe per
// shard.
func buildRelease(c *Cluster) []releaseProbe {
	probes := make([]releaseProbe, c.Shards())
	for i := range probes {
		e, p := c.Engine(i), &probes[i]
		clock := func(name string) *Clock { return NewClock(fmt.Sprintf("%s%d", name, i)) }
		e.UnparkOn(e.NewCoro("parked", func(ctx *Ctx) {
			ctx.Advance(10)
			ctx.Park()
			p.afterPark = true
		}), clock("parked"))
		e.UnparkOn(e.NewCoro("bounded", func(ctx *Ctx) {
			for {
				ctx.Advance(gridQuantum / 4)
				p.boundedIters++
			}
		}), clock("bounded"))
		e.UnparkOn(e.NewCoro("deferred", func(ctx *Ctx) {
			defer func() {
				ctx.Advance(2 * gridQuantum)
				p.afterDeferred = true
			}()
			ctx.Advance(1)
		}), clock("deferred"))
		late := clock("late")
		late.AdvanceTo(2 * releaseBound)
		e.UnparkOn(e.NewCoro("late", func(*Ctx) { p.unstartedRan = true }), late)
		e.NewCoro("never", func(*Ctx) { p.unstartedRan = true })
		e.UnparkOn(e.NewCoro("finished", func(ctx *Ctx) {
			ctx.Advance(5)
			p.finished++
		}), clock("finished"))
	}
	return probes
}

// startedLive counts e's coroutines that have a goroutine and have not
// finished.
func startedLive(e *Engine) int {
	n := 0
	for _, co := range e.coros {
		if co.started && !co.done {
			n++
		}
	}
	return n
}

// TestCloseReleasesCoroutines runs the release scenario on one shard
// and on two shards with their workers started, closes the cluster,
// and requires every goroutine it started to exit without running any
// more simulated code.
func TestCloseReleasesCoroutines(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards_%d", shards), func(t *testing.T) {
			base := runtime.NumGoroutine()
			c := NewCluster(shards)
			probes := buildRelease(c)
			if err := c.Run(releaseBound); err != nil {
				t.Fatal(err)
			}
			if shards > 1 && len(c.workers) != shards {
				t.Fatalf("%d shard workers started, want %d", len(c.workers), shards)
			}
			// Per shard, the parked, bounded and deferred coroutines are
			// goroutines blocked in yield.
			for i := 0; i < shards; i++ {
				if n := startedLive(c.Engine(i)); n != 3 {
					t.Fatalf("shard %d: %d started live coroutines before Close, want 3", i, n)
				}
			}
			for i, p := range probes {
				if p.finished != 1 || p.boundedIters == 0 || p.afterPark || p.afterDeferred || p.unstartedRan {
					t.Fatalf("shard %d did not reach its release states: %+v", i, p)
				}
			}
			before := slices.Clone(probes)
			c.Close()
			leakcheck.Wait(t, base)
			if !slices.Equal(probes, before) {
				t.Fatalf("released coroutines ran simulated code: %+v, was %+v", probes, before)
			}
			for i := 0; i < shards; i++ {
				if n := startedLive(c.Engine(i)); n != 0 {
					t.Fatalf("shard %d: %d started coroutines still live after Close", i, n)
				}
			}
		})
	}
}

// TestCloseTwiceThenRun pins the lifecycle edges: a second Close is a
// no-op and Run after Close panics.
func TestCloseTwiceThenRun(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewCluster(2)
	buildRelease(c)
	if err := c.Run(releaseBound); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close()
	leakcheck.Wait(t, base)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Run after Close") {
			t.Fatalf("Run after Close: recovered %v, want a Run after Close panic", r)
		}
	}()
	c.Run(math.MaxUint64)
}

// TestCloseWithoutRun closes a cluster that never ran: no coroutine has
// a goroutine, so there is nothing to release.
func TestCloseWithoutRun(t *testing.T) {
	base := runtime.NumGoroutine()
	c := NewCluster(2)
	probes := buildRelease(c)
	c.Close()
	leakcheck.Wait(t, base)
	if !slices.Equal(probes, make([]releaseProbe, 2)) {
		t.Fatalf("Close ran coroutines of a cluster that never ran: %+v", probes)
	}
}

// explode is the panicking frame TestRunPanicKeepsStack looks for.
//
//go:noinline
func explode() { panic("sim test: coroutine exploded") }

// TestRunPanicKeepsStack checks that the release machinery recovers
// nothing during a run: a coroutine's panic still kills the process
// with the panicking frame on its stack. The crash happens in a child
// copy of the test binary.
func TestRunPanicKeepsStack(t *testing.T) {
	if os.Getenv("SIM_RELEASE_PANIC_CHILD") == "1" {
		c, e := newSerial()
		e.UnparkOn(e.NewCoro("boom", func(ctx *Ctx) {
			ctx.Advance(1)
			explode()
		}), NewClock("cpu0"))
		c.Run(math.MaxUint64)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRunPanicKeepsStack$")
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
