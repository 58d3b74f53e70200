package hw

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"vpp/internal/sim"
)

// TestMaxStepsGuardSpansShards arms the machine-wide step guard on a
// 4-MPM machine whose only runaway coroutine lives on MPM 3: the guard
// must trip whichever shard that MPM lands on.
func TestMaxStepsGuardSpansShards(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.MPMs, cfg.CPUsPerMPM, cfg.Shards = 4, 1, shards
		m := NewMachine(cfg)
		mpm := m.MPMs[3]
		mpm.CPUs[0].Dispatch(mpm.NewExec("runaway", func(e *Exec) {
			for {
				e.Charge(1 << 12)
			}
		}))
		m.SetMaxSteps(1_000)
		if err := m.Run(math.MaxUint64); !errors.Is(err, sim.ErrMaxSteps) {
			t.Fatalf("shards=%d: Run = %v, want sim.ErrMaxSteps", shards, err)
		}
	}
}

// traceWorkload runs a two-MPM machine with a cross-shard latency bound
// registered and a dispatch trace installed: on each MPM two threads
// compute while a device engine wakes from a timer twenty times.
func traceWorkload(t *testing.T, shards int) (*Machine, []string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MPMs, cfg.CPUsPerMPM, cfg.Shards = 2, 2, shards
	m := NewMachine(cfg)
	m.BoundLookahead(1000)
	var trace []string
	m.SetTraceDispatch(func(name string, at uint64) {
		trace = append(trace, fmt.Sprintf("%s@%d", name, at))
	})
	for i, mpm := range m.MPMs {
		for j, cpu := range mpm.CPUs {
			cost := uint64(3000 * (i + j + 1))
			cpu.Dispatch(mpm.NewExec(fmt.Sprintf("w%d.%d", i, j), func(e *Exec) {
				for k := 0; k < 30; k++ {
					e.Charge(cost)
				}
			}))
		}
		period := uint64(2000 + 700*i)
		mpm.NewDeviceExec(fmt.Sprintf("dev%d", i), func(e *Exec) {
			for k := 0; k < 20; k++ {
				e.Charge(100)
				mpm.Shard.ScheduleAt(e.Now()+period, e.Wake)
				e.Park()
			}
		})
	}
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return m, trace
}

// TestOneShardMachineNeverLogs pins the one-shard fast path: with a
// latency bound registered and a dispatch trace installed, a one-shard
// machine still keeps no action log — Bound is a no-op on it and its
// engine traces activations as they happen — and its trace equals the
// two-shard machine's, which logs and merges at every epoch barrier.
func TestOneShardMachineNeverLogs(t *testing.T) {
	one, serial := traceWorkload(t, 1)
	for _, st := range one.Cluster.PoolStats() {
		if st.ActsCap != 0 || st.SubsCap != 0 || st.OutboxCap != 0 {
			t.Fatalf("one-shard machine logged: %+v", st)
		}
	}
	two, sharded := traceWorkload(t, 2)
	if two.Cluster.PoolStats()[0].ActsCap == 0 {
		t.Fatal("two-shard machine kept no action log; the comparison exercises nothing")
	}
	if len(serial) < 40 {
		t.Fatalf("trace has %d activations, want at least the 40 device wakeups", len(serial))
	}
	if got, want := strings.Join(sharded, " "), strings.Join(serial, " "); got != want {
		t.Fatalf("two-shard trace differs from one-shard:\n2: %s\n1: %s", got, want)
	}
	if one.Now() != two.Now() || one.Steps() != two.Steps() {
		t.Fatalf("clock/steps differ: one-shard %d/%d, two-shard %d/%d",
			one.Now(), one.Steps(), two.Now(), two.Steps())
	}
}
