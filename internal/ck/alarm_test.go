package ck

import (
	"testing"

	"vpp/internal/hw"
)

// alarmLoop boots a first kernel whose thread runs an orchestration
// agent's tick: set an alarm one period ahead, wait for its signal,
// return from the signal. laps counts the ticks taken.
func alarmLoop(tb testing.TB, period uint64, laps *int) *testEnv {
	return newEnvOpts(tb, hw.DefaultConfig(), Config{}, nil, func(env *testEnv, e *hw.Exec) {
		k := env.k
		for {
			if err := k.SetAlarm(e, k.CurrentThread(e), e.Now()+period, 0x7D1); err != nil {
				panic(err)
			}
			if _, err := k.WaitSignal(e); err != nil {
				panic(err)
			}
			k.SignalReturn(e)
			*laps++
		}
	})
}

// TestAlarmLoopZeroAlloc: once warm, an agent-style alarm loop
// allocates nothing. Each alarm takes a recycled record, and each
// dispatch's slice timer joins its CPU's stream, whose ring has grown
// to the backlog of 10 ms slices the 100 µs ticks leave pending.
func TestAlarmLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	period := hw.CyclesFromMicros(100)
	laps := 0
	env := alarmLoop(t, period, &laps)
	defer env.m.Close()
	slice := hw.CyclesFromMicros(2000)
	until := uint64(0)
	run := func() {
		until += slice
		if err := env.m.Run(until); err != nil {
			t.Fatal(err)
		}
	}
	// Warm past one time slice, so the slice-timer backlog is steady.
	for i := 0; i < 8; i++ {
		run()
	}
	warm := laps
	avg := testing.AllocsPerRun(16, run)
	if laps == warm {
		t.Fatal("no alarm fired in the measured slices")
	}
	if avg != 0 {
		t.Fatalf("alarm loop allocates: %.2f allocs per 2 ms slice (%d ticks), want 0", avg, (laps-warm)/17)
	}
}

// BenchmarkAlarmLoop measures one agent tick per op: SetAlarm, the
// alarm's delivery, WaitSignal's block and wakeup, and SignalReturn.
func BenchmarkAlarmLoop(b *testing.B) {
	period := hw.CyclesFromMicros(100)
	laps := 0
	env := alarmLoop(b, period, &laps)
	defer env.m.Close()
	warm := 100 * period
	if err := env.m.Run(warm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := env.m.Run(warm + uint64(b.N)*period); err != nil {
		b.Fatal(err)
	}
}
