package main

import (
	"fmt"
	"math"
	"sort"

	"vpp/internal/ck"
	"vpp/internal/exp"
	"vpp/internal/hw"
	"vpp/internal/sim"
	"vpp/internal/simk"
	"vpp/internal/simtest"
)

// workload is one family of scenarios the benchmark times. A scenario is
// named by a uint64 seed; the workload seed picks which scenarios a run
// times.
type workload struct {
	name string
	why  string

	// pool is the scenario seed space the list is drawn from, minus
	// knownBad; size is the list length. cost ranks scenarios by the
	// virtual work that best predicts their host time.
	pool     uint64
	size     int
	knownBad []uint64
	cost     func(s uint64) int

	// warm is the set-up a process pays before its first timed scenario.
	warm func() error
	// run runs one scenario and reports its virtual results; tr records
	// spans around the calls into the program and is nil when untraced.
	run func(s uint64, tr *tracer) outcome
	// topology is the machine and Cache Kernel configuration scenario s
	// builds; the traced run builds it once more, outside the profile, to
	// time construction on its own.
	topology func(s uint64) (hw.Config, []ck.Config)
}

// outcome is what one scenario run reports to the supervisor.
type outcome struct {
	// Digest is an FNV-1a hash over the scenario's virtual results; it
	// must be identical every time the scenario runs.
	Digest uint64 `json:"digest"`
	// Fail is the first failure line, empty when every check passed.
	Fail string `json:"fail,omitempty"`
	// Counts are the scenario's deterministic results by metric name: its
	// work counts, and on paper-suite table2_err_max_pct.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// workloads is the registry, in the order the usage text lists them.
var workloads = []*workload{
	{
		name: "cksim-ops",
		why:  "op-stream seeds, each on a freshly built machine under every oracle: construction, the harness and the GC dominate, as in cksim sweeps",
		pool: 2048, size: 1024,
		// Seeds in the pool that fail today: 76, 446, 1037, 1199 and 2023
		// panic with "ck: dispatch of running thread"; 1346 and 1886 fail
		// the dsm ping-pong oracle. The benchmark times passing seeds;
		// -seeds runs any list, failing seeds included.
		knownBad: []uint64{76, 446, 1037, 1199, 1346, 1886, 2023},
		cost:     func(s uint64) int { return len(simtest.Generate(s).Ops) },
		warm:     func() error { return warmSeeds(runOps, 1, 2, 3) },
		run:      runOps,
		topology: opsTopology,
	},
	{
		name: "cksim-orch",
		why:  "orchestration seeds on two engine shards: long machines split between the engine epochs, the Cache Kernel and ckctl, with negligible construction",
		pool: 512, size: 20,
		cost:     func(s uint64) int { return simtest.GenerateOrch(s).Orch.Pods },
		warm:     func() error { return warmSeeds(runOrch, 0) },
		run:      runOrch,
		topology: orchTopology,
	},
	{
		name: "cksim-fork",
		why:  "fork seeds: machines are forked from cached class snapshots with copy-on-write frames, the only workload that measures snap and ck's instance pool",
		pool: 4096, size: 256,
		cost: func(s uint64) int {
			sc := simtest.GenerateFork(s)
			return sc.MPMs * sc.Conts
		},
		warm:     warmFork,
		run:      runFork,
		topology: forkTopology,
	},
	{
		name: "paper-suite",
		why:  "one pass of the Table 2, s52b, s52c, a1 and a7 experiments: TLB, L2 and descriptor caching with no simulation harness, as when regenerating the paper's tables",
		pool: 64, size: 8,
		cost: func(uint64) int { return 0 },
		warm: func() error {
			_, err := exp.MeasureTable2()
			return err
		},
		run:      runPaper,
		topology: func(uint64) (hw.Config, []ck.Config) { return hw.DefaultConfig(), []ck.Config{{}} },
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// list draws the run's scenario seeds. The pool, minus known-bad seeds,
// is sorted by scenario cost and cut into size strata of neighbours; the
// workload seed picks one seed from each stratum and shuffles their
// order. Every list thus carries the same mix of small and large
// scenarios, which keeps runs with different seeds comparable.
func (w *workload) list(seed uint64) []uint64 {
	bad := make(map[uint64]bool, len(w.knownBad))
	for _, s := range w.knownBad {
		bad[s] = true
	}
	var pool []uint64
	cost := map[uint64]int{}
	for s := uint64(0); s < w.pool; s++ {
		if !bad[s] {
			pool = append(pool, s)
			cost[s] = w.cost(s)
		}
	}
	sort.SliceStable(pool, func(i, j int) bool { return cost[pool[i]] < cost[pool[j]] })
	r := sim.NewRand(seed)
	out := make([]uint64, w.size)
	for i := range out {
		lo, hi := i*len(pool)/w.size, (i+1)*len(pool)/w.size
		out[i] = pool[lo+r.Intn(hi-lo)]
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func warmSeeds(run func(uint64, *tracer) outcome, seeds ...uint64) error {
	for _, s := range seeds {
		if o := run(s, nil); o.Fail != "" {
			return fmt.Errorf("warm-up seed %d: %s", s, o.Fail)
		}
	}
	return nil
}

// digest is FNV-1a over 64-bit words.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			*d ^= digest(byte(v >> (8 * i)))
			*d *= 1099511628211
		}
	}
}

func (d *digest) addFloat(vs ...float64) {
	for _, v := range vs {
		d.add(math.Float64bits(v))
	}
}

func runOps(s uint64, tr *tracer) outcome {
	tr.begin("simtest.generate")
	sc := simtest.Generate(s)
	tr.end()
	tr.begin("simtest.run")
	r := simtest.RunSharded(sc, nil, 1)
	tr.end()
	return simOutcome(r)
}

func runOrch(s uint64, tr *tracer) outcome {
	tr.begin("simtest.generate")
	sc := simtest.GenerateOrch(s)
	tr.end()
	tr.begin("simtest.run")
	r := simtest.RunSharded(sc, nil, 2)
	tr.end()
	return simOutcome(r)
}

func simOutcome(r *simtest.Result) outcome {
	d := newDigest()
	d.add(r.Hash, r.FinalClock, r.Steps)
	f := r.FaultStats
	o := outcome{Digest: uint64(d), Counts: map[string]float64{
		"sim.steps":      float64(r.Steps),
		"sim.dispatches": float64(r.Dispatches),
		"chaos.faults": float64(f.Crashes + f.SignalsDropped + f.SignalsDuplicated + f.WritebacksCorrupted +
			f.FramesDropped + f.FramesDuplicated + f.FramesDelayed + f.WalkErrors + f.ExecsKilled),
	}}
	if st := r.Orch; st != nil {
		o.Counts["ckctl.migrated"] = float64(st.Migrated)
		o.Counts["ckctl.restarts"] = float64(st.Restarts)
		o.Counts["ckctl.blackout_max_ms"] = hw.MicrosFromCycles(st.BlackoutMax) / 1000
	}
	if r.Failed() {
		o.Fail = r.Failures[0].Oracle + ": " + r.Failures[0].Detail
	}
	return o
}

func opsTopology(s uint64) (hw.Config, []ck.Config) {
	sc := simtest.Generate(s)
	cfg := hw.DefaultConfig()
	cfg.MPMs, cfg.CPUsPerMPM = sc.MPMs, sc.CPUsPerMPM
	kc := ck.Config{ThreadSlots: sc.ThreadSlots, MappingSlots: sc.MappingSlots}
	return cfg, repeatConfig(kc, sc.MPMs)
}

// orchTopology mirrors the orchestration harness: a larger physical
// memory and descriptor caches provisioned for the whole pod fleet.
func orchTopology(s uint64) (hw.Config, []ck.Config) {
	sc := simtest.GenerateOrch(s)
	cfg := hw.DefaultConfig()
	cfg.MPMs, cfg.CPUsPerMPM = sc.MPMs, sc.CPUsPerMPM
	cfg.PhysMemBytes = 256 << 20
	cfg.Shards = 2
	kc := ck.Config{
		KernelSlots: sc.Orch.Pods + 8, SpaceSlots: sc.Orch.Pods + 16,
		ThreadSlots: sc.ThreadSlots, MappingSlots: sc.MappingSlots,
	}
	return cfg, repeatConfig(kc, sc.MPMs)
}

func forkTopology(s uint64) (hw.Config, []ck.Config) {
	sc := simtest.GenerateFork(s)
	cfg := hw.DefaultConfig()
	cfg.MPMs, cfg.CPUsPerMPM = sc.MPMs, sc.CPUsPerMPM
	return cfg, repeatConfig(ck.Config{}, sc.MPMs)
}

func repeatConfig(kc ck.Config, n int) []ck.Config {
	out := make([]ck.Config, n)
	for i := range out {
		out[i] = kc
	}
	return out
}

// forkClasses is how many boot-image classes GenerateFork draws from:
// 1 to 3 MPMs times three page windows.
const forkClasses = 9

// warmFork boots every fork class image once, by running the first seed
// of each class: the image cache is per process, so every process pays
// these boots before its first scenario.
func warmFork() error {
	seen := map[simtest.ForkClass]bool{}
	for s := uint64(0); len(seen) < forkClasses && s < 1024; s++ {
		cl := simtest.GenerateFork(s).Class()
		if seen[cl] {
			continue
		}
		seen[cl] = true
		if o := runFork(s, nil); o.Fail != "" {
			return fmt.Errorf("warm-up fork seed %d: %s", s, o.Fail)
		}
	}
	return nil
}

func runFork(s uint64, tr *tracer) outcome {
	tr.begin("simtest.generate")
	sc := simtest.GenerateFork(s)
	tr.end()
	tr.begin("simtest.run")
	r := simtest.RunForkScenario(sc, 1)
	tr.end()
	d := newDigest()
	d.add(r.Hash, uint64(r.Forks), uint64(r.SnapshotBytes), r.CowCopied)
	o := outcome{Digest: uint64(d), Counts: map[string]float64{
		"snap.forks":       float64(r.Forks),
		"snap.snapshot_kb": float64(r.SnapshotBytes) / 1024,
		"snap.cow_pages":   float64(r.CowCopied),
	}}
	if r.Failed() {
		o.Fail = r.Failures[0].Oracle + ": " + r.Failures[0].Detail
	}
	return o
}

// mp3dConfig is ckbench's s52c configuration with the particle seed
// taken from the scenario seed.
func mp3dConfig(s uint64) simk.MP3DConfig {
	return simk.MP3DConfig{
		CellsX: 64, CellsY: 16, ParticlesPerCell: 16,
		Workers: 4, Steps: 3, Seed: s, ComputePerParticle: 24,
	}
}

// table2Row is one Table 2 or §5.3 row with the tolerance
// TestTable2MatchesPaperShape allows it.
type table2Row struct {
	name      string
	got, want float64
	tol       float64
}

func table2Rows(t ck.Table2) []table2Row {
	p := ck.PaperTable2()
	return []table2Row{
		{"mapping load", t.MappingLoad, p.MappingLoad, 0.25},
		{"mapping load opt", t.MappingLoadOpt, p.MappingLoadOpt, 0.25},
		{"mapping load wb", t.MappingLoadWB, p.MappingLoadWB, 0.25},
		{"mapping load opt wb", t.MappingLoadOptWB, p.MappingLoadOptWB, 0.25},
		{"mapping unload", t.MappingUnload, p.MappingUnload, 0.25},
		{"thread load", t.ThreadLoad, p.ThreadLoad, 0.25},
		{"thread load wb", t.ThreadLoadWB, p.ThreadLoadWB, 0.25},
		{"thread unload", t.ThreadUnload, p.ThreadUnload, 0.25},
		{"space load", t.SpaceLoad, p.SpaceLoad, 0.25},
		{"space load wb", t.SpaceLoadWB, p.SpaceLoadWB, 0.25},
		{"space unload", t.SpaceUnload, p.SpaceUnload, 0.25},
		{"kernel load", t.KernelLoad, p.KernelLoad, 0.25},
		{"kernel load wb", t.KernelLoadWB, p.KernelLoadWB, 0.25},
		{"kernel unload", t.KernelUnload, p.KernelUnload, 0.25},
		{"trap getpid", t.TrapGetpid, p.TrapGetpid, 0.3},
		{"signal deliver", t.SignalDeliver, p.SignalDeliver, 0.3},
		{"signal return", t.SignalReturn, p.SignalReturn, 0.3},
		{"page fault", t.PageFaultTotal, p.PageFaultTotal, 0.3},
		{"fault transfer", t.FaultTransfer, p.FaultTransfer, 0.3},
	}
}

// table2ErrMaxPct is the largest |measured - paper| / paper over the
// rows, in percent.
func table2ErrMaxPct(rows []table2Row) float64 {
	var worst float64
	for _, r := range rows {
		worst = math.Max(worst, 100*math.Abs(r.got-r.want)/r.want)
	}
	return worst
}

func runPaper(s uint64, tr *tracer) outcome {
	d := newDigest()
	o := outcome{Counts: map[string]float64{}}
	fail := func(what string, err error) outcome {
		o.Fail = fmt.Sprintf("%s: %v", what, err)
		o.Digest = uint64(d)
		return o
	}

	tr.begin("exp.table2")
	t2, err := exp.MeasureTable2()
	tr.end()
	if err != nil {
		return fail("table2", err)
	}
	rows := table2Rows(t2)
	for _, r := range rows {
		d.addFloat(r.got)
		if r.got < r.want*(1-r.tol) || r.got > r.want*(1+r.tol) {
			o.Fail = fmt.Sprintf("table2: %s = %.1f µs, want %.0f ±%.0f%%", r.name, r.got, r.want, r.tol*100)
		}
	}
	o.Counts["sim.steps"] = float64(t2.SchedSteps)
	o.Counts["table2_err_max_pct"] = table2ErrMaxPct(rows)

	tr.begin("exp.thrash")
	th, err := exp.MeasureThrash(4096, nil, 2)
	tr.end()
	if err != nil {
		return fail("s52b", err)
	}
	var wbs uint64
	for _, p := range th.Points {
		d.add(uint64(p.WorkingSetPages), p.Faults, p.Writebacks)
		d.addFloat(p.CyclesPerTouch)
		wbs += p.Writebacks
	}
	o.Counts["ck.mapping_writebacks"] = float64(wbs)

	tr.begin("exp.mp3d")
	mp, err := exp.MeasureMP3D(mp3dConfig(s))
	tr.end()
	if err != nil {
		return fail("s52c", err)
	}
	for _, r := range []simk.MP3DResult{mp.Locality, mp.Scattered} {
		d.addFloat(r.MicrosPerStep, r.MoveMicrosPerStep, r.TLBMissRate, r.L2HitRate)
		d.add(r.Moves, r.Recopies)
	}
	o.Counts["hw.tlb_miss_ratio"] = mp.Locality.TLBMissRate

	tr.begin("exp.signal")
	sig, err := exp.MeasureSignalAblation()
	tr.end()
	if err != nil {
		return fail("a1", err)
	}
	d.addFloat(sig.RTLBMicros, sig.TwoStageMicros)

	tr.begin("exp.db")
	db, err := exp.MeasureDB()
	tr.end()
	if err != nil {
		return fail("a7", err)
	}
	d.addFloat(db.LRUMicros, db.QAMicros)
	d.add(db.LRUReads, db.QAReads)

	o.Digest = uint64(d)
	return o
}
