package sim

import (
	"fmt"
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

// BenchmarkEpochBarrier measures the sharded logged path end to end:
// two shards each firing one self-rescheduling event per epoch, so
// every b.N steps crosses action logging, the barrier merge and the
// pooled-buffer resets. With warm pools the steady state is
// allocation-free; CI asserts the allocs/op budget on this benchmark
// and the engine-step ones with -benchmem.
func BenchmarkEpochBarrier(b *testing.B) {
	c := NewCluster(2)
	c.Bound(512)
	for s := 0; s < 2; s++ {
		e := c.Engine(s)
		at := uint64(s + 1)
		var tick func()
		tick = func() {
			at += 512
			e.ScheduleAt(at, tick)
		}
		e.ScheduleAt(at, tick)
	}
	c.MaxSteps = uint64(b.N) + 64
	b.ResetTimer()
	_ = c.Run(math.MaxUint64)
}

// BenchmarkClusterScaling measures aggregate engine throughput of two
// multi-MPM topologies at 1, 2, 4 and 8 shards, one goroutine per
// shard, so host parallelism caps the speedup at min(shards, CPUs):
//   - flat16: 16 MPMs of 4 runnable coroutines each and no cross-shard
//     channel, so the cluster takes its scaling fast path (one unbounded
//     epoch, no barrier logging) and the row isolates raw parallel
//     engine throughput;
//   - big64: 64 MPMs of 32 coroutines with a 512-cycle cross-shard
//     bound, so the run crosses thousands of epoch barriers through the
//     logged path. Each coroutine alternates bursts of decisions with
//     parked stretches staggered per MPM, so some epochs find whole
//     shards idle.
//
// The metric is decisions/s: every shard may spend the whole remaining
// MaxSteps budget in one epoch, so a run can overshoot b.N decisions by
// up to the shard count and ns/op would understate the work done. The
// warmup fills the pooled epoch buffers first, so the CI allocation
// guard holds every row at 0 allocs/op.
func BenchmarkClusterScaling(b *testing.B) {
	topologies := []struct {
		name  string
		build func(c *Cluster)
		warm  uint64
	}{
		{"flat16", buildFlat16, 1 << 17},
		// The staggered park phases beat against the epoch grid, so the
		// action log's high-water mark takes many epochs to settle.
		{"big64", buildBig64, 1 << 20},
	}
	for _, top := range topologies {
		b.Run(top.name, func(b *testing.B) {
			for _, shards := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
					c := NewCluster(shards)
					top.build(c)
					c.MaxSteps = top.warm
					_ = c.Run(math.MaxUint64)
					base := clusterDecisions(c)
					c.MaxSteps = base + uint64(b.N)
					b.ResetTimer()
					_ = c.Run(math.MaxUint64)
					b.StopTimer()
					b.ReportMetric(float64(clusterDecisions(c)-base)/b.Elapsed().Seconds(), "decisions/s")
				})
			}
		})
	}
}

// clusterDecisions is the raw decision count the MaxSteps guard bounds,
// summed over shards.
func clusterDecisions(c *Cluster) uint64 {
	var n uint64
	for i := 0; i < c.Shards(); i++ {
		n += c.Engine(i).steps
	}
	return n
}

// buildFlat16 spreads 16 MPMs of 4 always-runnable coroutines over the
// cluster's shards.
func buildFlat16(c *Cluster) {
	for i := 0; i < 16; i++ {
		e := c.Engine(i % c.Shards())
		for j := 0; j < 4; j++ {
			clk := NewClock("c")
			co := e.NewCoro("w", func(ctx *Ctx) {
				for {
					ctx.Advance(10)
					ctx.Reschedule()
				}
			})
			e.UnparkOn(co, clk)
		}
	}
}

// buildBig64 spreads 64 MPMs of 32 coroutines over the cluster's shards
// under a 512-cycle cross-shard bound. Each coroutine makes 48
// decisions, then parks and re-arms its own wakeup through the pooled
// event records; the wake closure is built once per coroutine, so the
// steady state does not allocate.
func buildBig64(c *Cluster) {
	const epoch = 512
	c.Bound(epoch)
	for i := 0; i < 64; i++ {
		e := c.Engine(i % c.Shards())
		park := uint64(2*epoch + i%7*epoch/2)
		for j := 0; j < 32; j++ {
			clk := NewClock("c")
			var co *Coro
			wake := func() { e.UnparkOn(co, clk) }
			co = e.NewCoro("w", func(ctx *Ctx) {
				for {
					for b := 0; b < 48; b++ {
						ctx.Advance(10)
						ctx.Reschedule()
					}
					e.ScheduleAfter(park, wake)
					ctx.Park()
				}
			})
			e.UnparkOn(co, clk)
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
