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
