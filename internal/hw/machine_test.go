package hw

import (
	"errors"
	"math"
	"testing"

	"vpp/internal/sim"
)

// TestMaxStepsGuardSpansShards arms the machine-wide step guard on a
// 4-MPM machine whose only runaway coroutine lives on MPM 3: the guard
// counts the decisions of every MPM's work on the one engine.
func TestMaxStepsGuardSpansShards(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MPMs, cfg.CPUsPerMPM = 4, 1
	m := NewMachine(cfg)
	mpm := m.MPMs[3]
	mpm.CPUs[0].Dispatch(mpm.NewExec("runaway", func(e *Exec) {
		for {
			e.Charge(1 << 12)
		}
	}))
	m.SetMaxSteps(1_000)
	if err := m.Run(math.MaxUint64); !errors.Is(err, sim.ErrMaxSteps) {
		t.Fatalf("Run = %v, want sim.ErrMaxSteps", err)
	}
}

// sliceSup is a supervisor with a slice timer: the tick posts an
// interrupt, and the interrupted context re-arms the timer from
// coroutine context, as the Cache Kernel's scheduler does on each
// dispatch and slice rotation.
type sliceSup struct {
	fakeSup
	slice uint64
	ticks int
}

func (s *sliceSup) TimerTick(c *CPU) {
	s.ticks++
	c.Post(1)
}

func (s *sliceSup) Interrupt(e *Exec, pending uint32) {
	e.CPU.ArmTimerAt(e.CPU.Clock.Now() + s.slice)
}

// TestSliceTimerZeroAlloc: once warm, arming and firing a CPU's slice
// timer allocates nothing. Each CPU's timer callback is built with the
// CPU, and the engine recycles the event records.
func TestSliceTimerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	m := NewMachine(DefaultConfig())
	defer m.Close()
	mpm := m.MPMs[0]
	sup := &sliceSup{slice: 5_000}
	mpm.Sup = sup
	for _, c := range mpm.CPUs {
		c.Dispatch(mpm.NewExec("spin", func(e *Exec) {
			for {
				e.Charge(1_000)
			}
		}))
		c.ArmTimerAt(sup.slice)
	}
	until := uint64(0)
	run := func() {
		until += 64 * sup.slice
		if err := m.Run(until); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run()
	}
	ticks := sup.ticks
	avg := testing.AllocsPerRun(16, run)
	if sup.ticks == ticks {
		t.Fatal("no slice timer fired in the measured runs")
	}
	if avg != 0 {
		t.Fatalf("slice timer allocates: %.2f allocs per run of %d timer ticks, want 0", avg, (sup.ticks-ticks)/17)
	}
}
