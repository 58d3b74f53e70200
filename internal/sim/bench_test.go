package sim

import (
	"math"
	"testing"
)

// benchEngineStep measures raw engine throughput with n concurrent
// runnable coroutines: how many scheduling decisions the host executes
// per second. The per-decision cost of the ready-structure dominates as
// n grows.
func benchEngineStep(b *testing.B, n int) {
	b.Helper()
	c, e := newSerial()
	for i := 0; i < n; i++ {
		clk := NewClock("c")
		co := e.NewCoro("w", func(ctx *Ctx) {
			for {
				ctx.Advance(10)
				ctx.Reschedule()
			}
		})
		e.UnparkOn(co, clk)
	}
	c.MaxSteps = uint64(b.N) + uint64(n)*4
	b.ResetTimer()
	_ = c.Run(math.MaxUint64)
}

// BenchmarkEngineSchedulingDecision measures raw engine throughput: how
// many coroutine scheduling decisions the host executes per second.
func BenchmarkEngineSchedulingDecision(b *testing.B) { benchEngineStep(b, 4) }

// BenchmarkEngineStep64 exercises the ready structure at one simulated
// MPM's worth of active contexts.
func BenchmarkEngineStep64(b *testing.B) { benchEngineStep(b, 64) }

// BenchmarkEngineStep256 is the ISSUE 1 acceptance microbenchmark: a
// large multiprogrammed machine's worth of runnable contexts.
func BenchmarkEngineStep256(b *testing.B) { benchEngineStep(b, 256) }

// BenchmarkEventHeap measures timer scheduling throughput.
func BenchmarkEventHeap(b *testing.B) {
	c, e := newSerial()
	for i := 0; i < b.N; i++ {
		e.ScheduleAt(uint64(i%1024), func() {})
		if i%1024 == 1023 {
			_ = c.Run(uint64(i))
		}
	}
}

// BenchmarkRand measures the workload PRNG.
func BenchmarkRand(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
