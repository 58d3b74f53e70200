package simtest

import (
	"math"
	"testing"

	"vpp/internal/hw"
	"vpp/internal/sim"
)

// TestMonotonicityPerName pins what the monotonicity oracle compares:
// activations of one coroutine name, whichever coroutine carries it. A
// is activated at cycle 100 and unparks B, a different coroutine with
// the same name, on a clock at cycle 50; the oracle fires once. An
// oracle that kept its last time per coroutine would stay silent.
func TestMonotonicityPerName(t *testing.T) {
	h := &harness{m: hw.NewMachine(hw.DefaultConfig())}
	defer h.m.Close()
	h.installTrace(nil)
	eng := h.m.Engine
	early := sim.NewClock("early")
	early.AdvanceTo(50)
	late := sim.NewClock("late")
	late.AdvanceTo(100)
	b := eng.NewCoro("svc", func(*sim.Ctx) {})
	a := eng.NewCoro("svc", func(ctx *sim.Ctx) {
		ctx.Engine().UnparkOn(b, early)
	})
	eng.UnparkOn(a, late)
	if err := eng.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if len(h.failures) != 1 || h.failures[0].Oracle != "monotonicity" {
		t.Fatalf("failures %+v, want one monotonicity failure", h.failures)
	}
	if got := h.sched.Count(); got != 2 {
		t.Fatalf("%d activations traced, want 2", got)
	}
}
