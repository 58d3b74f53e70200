package exp

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/pagetable"
	"vpp/internal/sim"
)

// HostperfReport records host-side simulator throughput: how fast the
// host executes simulated work, independent of the (unchanged) virtual
// cycle charges. cmd/ckbench -hostperf emits it as BENCH_hostperf.json
// so the performance trajectory is tracked across PRs; EXPERIMENTS.md
// explains how to compare runs.
type HostperfReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`

	// Engine-step microbenchmark: 256 runnable coroutines, each
	// scheduling decision a heap/scan pick plus one coroutine handoff.
	// The allocation profile is measured over the steady state (after a
	// warmup run that fills the pools): the no-trace step path must be
	// allocation-free, and CI enforces AllocsPerOp == 0 here.
	EngineStepCoros       int     `json:"engine_step_coros"`
	EngineSteps           uint64  `json:"engine_steps"`
	EngineStepHostMs      float64 `json:"engine_step_host_ms"`
	EngineStepsPerSec     float64 `json:"engine_steps_per_sec"`
	EngineStepAllocsPerOp float64 `json:"engine_step_allocs_per_op"`
	EngineStepBytesPerOp  float64 `json:"engine_step_bytes_per_op"`

	// Translate hit path: repeated MMU translations of one hot resident
	// page — the case the per-Exec micro-cache serves. Rotating working
	// sets are covered by BenchmarkTLBLookup in internal/hw.
	TranslateOps     uint64  `json:"translate_ops"`
	TranslateHostMs  float64 `json:"translate_host_ms"`
	TranslateNsPerOp float64 `json:"translate_ns_per_op"`

	// Full boot + workload: a Cache Kernel boot running a getpid loop
	// alongside waves of short-lived threads (the ckos-style shape that
	// accumulates finished contexts).
	BootGetpidLoops     int     `json:"boot_getpid_loops"`
	BootWorkerWaves     int     `json:"boot_worker_waves"`
	BootSimCycles       uint64  `json:"boot_sim_cycles"`
	BootSimMicros       float64 `json:"boot_sim_micros"`
	BootSchedSteps      uint64  `json:"boot_sched_steps"`
	BootHostMs          float64 `json:"boot_host_ms"`
	BootSimCyclesPerSec float64 `json:"boot_sim_cycles_per_sec"`
	// HostNsPerSimMicro is host nanoseconds spent per simulated
	// microsecond of the boot workload — the headline "how much slower
	// than the hardware are we" number.
	HostNsPerSimMicro float64 `json:"boot_host_ns_per_sim_micro"`

	// Sharded engine scaling: a 16-MPM topology of independent
	// engine-step workloads spread over 1/2/4/8 shards, each shard a
	// goroutine (so host parallelism caps at HostCPUs — speedup cannot
	// exceed min(shards, host_cpus) and is ~1.0 on a single-core host).
	// No cross-shard channel exists, so the cluster takes its scaling
	// fast path: one unbounded epoch, no barrier logging.
	HostCPUs       int                  `json:"host_cpus"`
	ShardedMPMs    int                  `json:"sharded_mpms"`
	ShardedScaling []HostperfShardPoint `json:"sharded_engine_scaling"`

	// Big64: the many-core topology — 64 MPMs, Big64Coros coroutines in
	// total — with a cross-shard latency bound registered, so the
	// cluster runs real epochs through the logged path: per-epoch
	// action logs, pooled event records, and barrier resets all on the
	// hot path, plus idle-shard epochs from the staggered park phases.
	// Allocation columns are steady-state (post-warmup) and show that
	// the pooled epoch machinery stops allocating once its high-water
	// marks are reached. Speedup columns are honest about HostCPUs: on
	// a single-core host they sit near 1.0 and the ≥4x scaling claim
	// stays deferred (EXPERIMENTS.md).
	Big64MPMs        int                  `json:"big64_mpms"`
	Big64Coros       int                  `json:"big64_coros"`
	Big64EpochCycles uint64               `json:"big64_epoch_bound_cycles"`
	Big64Scaling     []HostperfShardPoint `json:"big64_engine_scaling"`

	// Cksan records the runtime ownership sanitizer's overhead: a
	// -tags cksan ckbench run re-measures the microbenchmarks and
	// stores them with their ratios against the clean numbers above.
	// Absent when no sanitizer run has been merged into the report.
	Cksan *HostperfCksan `json:"cksan,omitempty"`
}

// HostperfCksan is the sanitized build's throughput next to the clean
// build's, as overhead ratios (sanitized cost / clean cost; 1.0 = free).
type HostperfCksan struct {
	EngineStepsPerSec  float64 `json:"engine_steps_per_sec"`
	TranslateNsPerOp   float64 `json:"translate_ns_per_op"`
	HostNsPerSimMicro  float64 `json:"boot_host_ns_per_sim_micro"`
	EngineStepOverhead float64 `json:"engine_step_overhead"`
	TranslateOverhead  float64 `json:"translate_overhead"`
	BootOverhead       float64 `json:"boot_overhead"`
}

// HostperfShardPoint is one shard count's aggregate engine throughput
// and steady-state host allocation profile (per scheduling decision,
// measured after a pool-filling warmup run).
type HostperfShardPoint struct {
	Shards      int     `json:"shards"`
	Steps       uint64  `json:"steps"`
	HostMs      float64 `json:"host_ms"`
	StepsPerSec float64 `json:"steps_per_sec"`
	Speedup     float64 `json:"speedup_vs_serial"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

func (r HostperfReport) String() string {
	s := fmt.Sprintf(
		"engine step (%d coros): %.0f steps/sec (%d steps in %.1f ms, %.2f allocs/op, %.1f B/op)\n"+
			"translate hit path:       %.1f ns/op (%d ops in %.1f ms)\n"+
			"boot+getpid workload:     %.0f sim-cycles/sec, %.0f host-ns per sim-µs\n"+
			"                          (%d sim-cycles = %.0f sim-µs in %.1f ms, %d sched steps)\n",
		r.EngineStepCoros, r.EngineStepsPerSec, r.EngineSteps, r.EngineStepHostMs,
		r.EngineStepAllocsPerOp, r.EngineStepBytesPerOp,
		r.TranslateNsPerOp, r.TranslateOps, r.TranslateHostMs,
		r.BootSimCyclesPerSec, r.HostNsPerSimMicro,
		r.BootSimCycles, r.BootSimMicros, r.BootHostMs, r.BootSchedSteps)
	for _, p := range r.ShardedScaling {
		s += fmt.Sprintf("sharded %2d-MPM engine, %d shard(s) on %d host cpu(s): %.0f steps/sec (%.2fx vs serial, %.2f allocs/op, %.1f B/op)\n",
			r.ShardedMPMs, p.Shards, r.HostCPUs, p.StepsPerSec, p.Speedup, p.AllocsPerOp, p.BytesPerOp)
	}
	for _, p := range r.Big64Scaling {
		s += fmt.Sprintf("big64 %2d-MPM epoch engine (%d coros, %d-cycle epochs), %d shard(s): %.0f steps/sec (%.2fx vs serial, %.2f allocs/op, %.1f B/op)\n",
			r.Big64MPMs, r.Big64Coros, r.Big64EpochCycles, p.Shards, p.StepsPerSec, p.Speedup, p.AllocsPerOp, p.BytesPerOp)
	}
	return s
}

// clusterRunProfile is the measured window of one cluster workload:
// scheduling decisions made, host wall time, and the host allocation
// profile per decision.
type clusterRunProfile struct {
	ops         uint64
	hostMs      float64
	allocsPerOp float64
	bytesPerOp  float64
}

// measureClusterRun runs c for warm scheduling decisions to reach
// steady state (pool high-water marks hit, worker goroutines and
// coroutine stacks grown), then measures steps further decisions.
// Allocation deltas come from runtime.MemStats: safe to read here
// because between Run calls every shard worker is parked, so no other
// goroutine is allocating.
func measureClusterRun(c *sim.Cluster, warm, steps uint64) clusterRunProfile {
	decisions := func() uint64 {
		var t uint64
		for i := 0; i < c.Shards(); i++ {
			t += c.Engine(i).Decisions()
		}
		return t
	}
	c.MaxSteps = warm
	_ = c.Run(math.MaxUint64)
	// The guard is a runaway bound, not an exact count: in one epoch
	// every shard may consume the whole remainder, so the warm run can
	// overshoot MaxSteps by a shard-count factor. Arm the measured run
	// relative to the decisions actually made.
	base := decisions()
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	t0 := time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	c.MaxSteps = base + steps
	_ = c.Run(math.MaxUint64)
	d := time.Since(t0) //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	runtime.ReadMemStats(&m2)
	p := clusterRunProfile{
		ops:    decisions() - base,
		hostMs: float64(d.Nanoseconds()) / 1e6,
	}
	if p.ops > 0 {
		p.allocsPerOp = float64(m2.Mallocs-m1.Mallocs) / float64(p.ops)
		p.bytesPerOp = float64(m2.TotalAlloc-m1.TotalAlloc) / float64(p.ops)
	}
	return p
}

// hostperfShardedStep spreads mpms independent engine-step workloads
// (4 runnable coroutines each) over shards cluster shards and measures
// steps scheduling decisions after a warmup quarter. With no
// cross-shard channel the epoch spans the whole run — the measurement
// isolates raw parallel engine throughput, not barrier cost.
func hostperfShardedStep(mpms, shards int, steps uint64) clusterRunProfile {
	c := sim.NewCluster(shards)
	for i := 0; i < mpms; i++ {
		e := c.Engine(i % shards)
		for j := 0; j < 4; j++ {
			clk := sim.NewClock("c")
			co := e.NewCoro("w", func(ctx *sim.Ctx) {
				for {
					ctx.Advance(10)
					ctx.Reschedule()
				}
			})
			e.UnparkOn(co, clk)
		}
	}
	return measureClusterRun(c, steps/4, steps)
}

// big64EpochCycles is the registered cross-shard latency bound of the
// Big64 topology: small enough that a run crosses thousands of epoch
// barriers, so the per-epoch pooled machinery (action logs, event
// records, barrier resets) is the thing being measured.
const big64EpochCycles = 512

// hostperfBig64 builds the many-core topology — mpms MPM workloads of
// corosPerMPM coroutines each, spread over shards — with a real
// latency bound registered, so the cluster runs bounded epochs through
// the logged path. Each coroutine alternates bursts of scheduling
// decisions with parked stretches, re-arming its own wakeup event
// through the pooled event records; the park phases are staggered per
// MPM so some epochs find whole shards idle (the inline idle-shard
// fast path). The wake closure is built once per coroutine: the steady
// state must not allocate, and it does not — which the allocation
// columns of BENCH_hostperf.json demonstrate.
func hostperfBig64(mpms, corosPerMPM, shards int, steps uint64) clusterRunProfile {
	c := sim.NewCluster(shards)
	c.Bound(big64EpochCycles)
	for i := 0; i < mpms; i++ {
		e := c.Engine(i % shards)
		// Stagger park lengths by MPM so shard idleness varies by epoch.
		park := uint64(2*big64EpochCycles + i%7*big64EpochCycles/2)
		for j := 0; j < corosPerMPM; j++ {
			clk := sim.NewClock("c")
			var co *sim.Coro
			wake := func() { e.UnparkOn(co, clk) }
			co = e.NewCoro("w", func(ctx *sim.Ctx) {
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
	// A full-length warmup: the staggered park phases beat against the
	// epoch grid, so the action log's high-water mark takes many epochs
	// to stabilize — measure only after it has.
	return measureClusterRun(c, steps, steps)
}

// hostperfTranslate runs ops hot-path translations and reports the wall
// time.
func hostperfTranslate(ops uint64) (time.Duration, error) {
	m := hw.NewMachine(hw.DefaultConfig())
	mpm := m.MPMs[0]
	tbl, err := pagetable.New(nil)
	if err != nil {
		return 0, err
	}
	tbl.Insert(0x100_0000, pagetable.MakePTE(512, pagetable.PTEValid|pagetable.PTEWrite))
	sp := &hw.Space{Table: tbl, ASID: 1}
	e := mpm.NewExec("xlate", func(e *hw.Exec) {
		e.Space = sp
		for i := uint64(0); i < ops; i++ {
			e.Translate(0x100_0000, false)
		}
	})
	mpm.CPUs[0].Dispatch(e)
	t0 := time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	if err := m.Run(math.MaxUint64); err != nil {
		return 0, err
	}
	return time.Since(t0), nil //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
}

// RunHostperfBoot boots a Cache Kernel and runs the hostperf workload:
// a user thread looping trap(getpid) + page touches for loops
// iterations, while the boot thread launches waves of short-lived
// worker threads that fault pages in, trap, and exit. It returns the
// final virtual time and the engine's scheduling-step count. The
// workload is deterministic; only its host-side wall time varies.
func RunHostperfBoot(loops, waves int) (simCycles, steps uint64, err error) {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		return 0, 0, err
	}
	const sysGetpid = 20
	attrs := ck.KernelAttrs{
		Name: "hostperf",
		Trap: func(e *hw.Exec, th ck.ObjID, no uint32, args []uint32) (uint32, uint32) {
			if no == sysGetpid {
				e.Instr(6)
				return 77, 0
			}
			return ^uint32(0), 0
		},
		LockQuota: [4]int{4, 8, 16, 256},
	}
	const winBase = uint32(0x2000_0000)
	const winPages = 192
	attrs.Fault = func(fe *hw.Exec, th, space ck.ObjID, va uint32, write bool, kind hw.Fault) bool {
		if va < winBase || va >= winBase+winPages*hw.PageSize {
			return false
		}
		err := k.LoadMappingAndResume(fe, space, ck.MappingSpec{
			VA:       va &^ (hw.PageSize - 1),
			PFN:      2048 + (va>>hw.PageShift)%1024,
			Writable: true, Cachable: true,
		})
		return err == nil
	}

	var bodyErr error
	body := func(e *hw.Exec) {
		sid, err := k.LoadSpace(e, false)
		if err != nil {
			bodyErr = err
			return
		}
		loopDone := false
		loopExec := k.MPM.NewExec("getpid-loop", func(ue *hw.Exec) {
			for i := 0; i < loops; i++ {
				ue.Trap(sysGetpid)
				ue.Touch(winBase+uint32(i%64)*hw.PageSize, false)
			}
			loopDone = true
		})
		if _, err := k.LoadThread(e, sid, ck.ThreadState{Priority: 30, Exec: loopExec}, false); err != nil {
			bodyErr = err
			return
		}
		// Waves of short-lived workers: each faults a few pages, traps,
		// and exits, leaving a finished context behind.
		for w := 0; w < waves; w++ {
			for j := 0; j < 8; j++ {
				base := winBase + uint32(64+(w*8+j)%128)*hw.PageSize
				we := k.MPM.NewExec(fmt.Sprintf("worker-%d-%d", w, j), func(ue *hw.Exec) {
					for p := uint32(0); p < 4; p++ {
						ue.Touch(base+p*hw.PageSize, true)
					}
					ue.Trap(sysGetpid)
				})
				if _, err := k.LoadThread(e, sid, ck.ThreadState{Priority: 28, Exec: we}, false); err != nil {
					bodyErr = err
					return
				}
			}
			e.Charge(hw.CyclesFromMicros(300))
		}
		for i := 0; i < loops*8 && !loopDone; i++ {
			e.Charge(2000)
		}
		if !loopDone {
			bodyErr = fmt.Errorf("hostperf: getpid loop did not finish")
		}
	}
	if _, err := k.Boot(attrs, 40, body); err != nil {
		return 0, 0, err
	}
	m.SetMaxSteps(2_000_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return 0, 0, err
	}
	return m.MPMs[0].Shard.Now(), m.Steps(), bodyErr
}

// MeasureHostperf runs the three host-performance benchmarks at fixed
// sizes and assembles the report.
func MeasureHostperf() (HostperfReport, error) {
	r := HostperfReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	// The engine-step row: 64 four-coroutine workloads on one shard.
	r.EngineStepCoros = 256
	ep := hostperfShardedStep(r.EngineStepCoros/4, 1, 1<<19)
	r.EngineSteps = ep.ops
	r.EngineStepHostMs = ep.hostMs
	r.EngineStepsPerSec = float64(ep.ops) / (ep.hostMs / 1e3)
	r.EngineStepAllocsPerOp = ep.allocsPerOp
	r.EngineStepBytesPerOp = ep.bytesPerOp

	r.TranslateOps = 1 << 21
	d, err := hostperfTranslate(r.TranslateOps)
	if err != nil {
		return r, err
	}
	r.TranslateHostMs = float64(d.Nanoseconds()) / 1e6
	r.TranslateNsPerOp = float64(d.Nanoseconds()) / float64(r.TranslateOps)

	r.BootGetpidLoops = 4000
	r.BootWorkerWaves = 96
	t0 := time.Now() //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	cycles, steps, err := RunHostperfBoot(r.BootGetpidLoops, r.BootWorkerWaves)
	d = time.Since(t0) //ckvet:allow detmap host-side wall-clock measurement is this experiment's purpose
	if err != nil {
		return r, err
	}
	r.BootSimCycles = cycles
	r.BootSimMicros = hw.MicrosFromCycles(cycles)
	r.BootSchedSteps = steps
	r.BootHostMs = float64(d.Nanoseconds()) / 1e6
	r.BootSimCyclesPerSec = float64(cycles) / d.Seconds()
	r.HostNsPerSimMicro = float64(d.Nanoseconds()) / r.BootSimMicros

	r.HostCPUs = runtime.NumCPU()
	r.ShardedMPMs = 16
	var serialRate float64
	for _, shards := range []int{1, 2, 4, 8} {
		pr := hostperfShardedStep(r.ShardedMPMs, shards, 1<<19)
		p := shardPoint(shards, pr, &serialRate)
		r.ShardedScaling = append(r.ShardedScaling, p)
	}

	r.Big64MPMs = 64
	r.Big64Coros = r.Big64MPMs * 32
	r.Big64EpochCycles = big64EpochCycles
	serialRate = 0
	for _, shards := range []int{1, 2, 4, 8} {
		pr := hostperfBig64(r.Big64MPMs, 32, shards, 1<<20)
		p := shardPoint(shards, pr, &serialRate)
		r.Big64Scaling = append(r.Big64Scaling, p)
	}
	return r, nil
}

// shardPoint converts one measured run into a report row, tracking the
// one-shard rate so later rows can report speedup against it.
func shardPoint(shards int, pr clusterRunProfile, serialRate *float64) HostperfShardPoint {
	p := HostperfShardPoint{
		Shards:      shards,
		Steps:       pr.ops,
		HostMs:      pr.hostMs,
		StepsPerSec: float64(pr.ops) / (pr.hostMs / 1e3),
		AllocsPerOp: pr.allocsPerOp,
		BytesPerOp:  pr.bytesPerOp,
	}
	if shards == 1 {
		*serialRate = p.StepsPerSec
	}
	if *serialRate > 0 {
		p.Speedup = p.StepsPerSec / *serialRate
	}
	return p
}
