// Benchmarks regenerating the paper's evaluation (one per table row,
// figure and ablation; DESIGN.md §3 is the index). Durations are
// *simulated* microseconds on the 25 MHz ParaDiGM model, reported as the
// custom metric "sim-µs" next to the paper's value in "paper-µs";
// wall-clock ns/op measures only how fast the simulator itself runs.
//
//	go test -bench=. -benchmem
package vpp

import (
	"testing"

	"vpp/internal/ck"
	"vpp/internal/exp"
	"vpp/internal/hw"
	"vpp/internal/monolith"
	"vpp/internal/simk"
)

// benchTable2 runs the full Table 2 measurement per iteration and
// reports one row.
func benchTable2(b *testing.B, pick func(ck.Table2) float64, paper float64) {
	b.Helper()
	var t2 ck.Table2
	var err error
	for i := 0; i < b.N; i++ {
		t2, err = ck.MeasureTable2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pick(t2), "sim-µs")
	b.ReportMetric(paper, "paper-µs")
}

func BenchmarkTable2(b *testing.B) {
	p := ck.PaperTable2()
	rows := []struct {
		name  string
		pick  func(ck.Table2) float64
		paper float64
	}{
		{"MappingLoad", func(t ck.Table2) float64 { return t.MappingLoad }, p.MappingLoad},
		{"MappingLoadOptimized", func(t ck.Table2) float64 { return t.MappingLoadOpt }, p.MappingLoadOpt},
		{"MappingLoadWriteback", func(t ck.Table2) float64 { return t.MappingLoadWB }, p.MappingLoadWB},
		{"MappingLoadOptWriteback", func(t ck.Table2) float64 { return t.MappingLoadOptWB }, p.MappingLoadOptWB},
		{"MappingUnload", func(t ck.Table2) float64 { return t.MappingUnload }, p.MappingUnload},
		{"ThreadLoad", func(t ck.Table2) float64 { return t.ThreadLoad }, p.ThreadLoad},
		{"ThreadLoadWriteback", func(t ck.Table2) float64 { return t.ThreadLoadWB }, p.ThreadLoadWB},
		{"ThreadUnload", func(t ck.Table2) float64 { return t.ThreadUnload }, p.ThreadUnload},
		{"SpaceLoad", func(t ck.Table2) float64 { return t.SpaceLoad }, p.SpaceLoad},
		{"SpaceLoadWriteback", func(t ck.Table2) float64 { return t.SpaceLoadWB }, p.SpaceLoadWB},
		{"SpaceUnload", func(t ck.Table2) float64 { return t.SpaceUnload }, p.SpaceUnload},
		{"KernelLoad", func(t ck.Table2) float64 { return t.KernelLoad }, p.KernelLoad},
		{"KernelLoadWriteback", func(t ck.Table2) float64 { return t.KernelLoadWB }, p.KernelLoadWB},
		{"KernelUnload", func(t ck.Table2) float64 { return t.KernelUnload }, p.KernelUnload},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) { benchTable2(b, r.pick, r.paper) })
	}
}

func BenchmarkSection53(b *testing.B) {
	p := ck.PaperTable2()
	rows := []struct {
		name  string
		pick  func(ck.Table2) float64
		paper float64
	}{
		{"TrapGetpid", func(t ck.Table2) float64 { return t.TrapGetpid }, p.TrapGetpid},
		{"SignalDelivery", func(t ck.Table2) float64 { return t.SignalDeliver }, p.SignalDeliver},
		{"SignalReturn", func(t ck.Table2) float64 { return t.SignalReturn }, p.SignalReturn},
		{"PageFaultTotal", func(t ck.Table2) float64 { return t.PageFaultTotal }, p.PageFaultTotal},
		{"FaultTransfer", func(t ck.Table2) float64 { return t.FaultTransfer }, p.FaultTransfer},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) { benchTable2(b, r.pick, r.paper) })
	}
}

// BenchmarkMonolithGetpid is the baseline comparison: the paper reports
// Mach 2.5 getpid at about 25 µs, 12 µs below the Cache Kernel's
// forwarded path.
func BenchmarkMonolithGetpid(b *testing.B) {
	var dur float64
	for i := 0; i < b.N; i++ {
		m := hw.NewMachine(hw.DefaultConfig())
		k := monolith.New(m.MPMs[0])
		if _, err := k.Spawn("u", 10, 0x1000_0000, 4, func(e *hw.Exec) {
			e.Trap(monolith.SysGetpid)
			t0 := e.Now()
			e.Trap(monolith.SysGetpid)
			dur = hw.MicrosFromCycles(e.Now() - t0)
		}); err != nil {
			b.Fatal(err)
		}
		if err := m.Run(1 << 62); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(dur, "sim-µs")
	b.ReportMetric(25, "paper-µs")
}

// BenchmarkThrash sweeps the touched working set against the mapping
// descriptor cache (S5.2b), reporting cycles per touch at each point.
func BenchmarkThrash(b *testing.B) {
	const slots = 1024
	for _, ws := range []int{256, 512, 960, 1152, 1536} {
		b.Run(benchName("pages", ws), func(b *testing.B) {
			var res exp.ThrashResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = exp.MeasureThrash(slots, []int{ws}, 2)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Points[0].CyclesPerTouch, "sim-cycles/touch")
			b.ReportMetric(float64(res.Points[0].Writebacks), "writebacks")
		})
	}
}

// BenchmarkMP3D reproduces the S5.2c page-locality degradation.
func BenchmarkMP3D(b *testing.B) {
	cfg := simk.MP3DConfig{
		CellsX: 64, CellsY: 16, ParticlesPerCell: 16,
		Workers: 4, Steps: 3, Seed: 3, ComputePerParticle: 24,
	}
	var res exp.MP3DComparison
	var err error
	b.Run("LocalityVsScattered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err = exp.MeasureMP3D(cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(res.Locality.MoveMicrosPerStep, "sim-µs/step-locality")
		b.ReportMetric(res.Scattered.MoveMicrosPerStep, "sim-µs/step-scattered")
		b.ReportMetric(100*(res.Slowdown()-1), "degradation-%")
		b.ReportMetric(25, "paper-max-%")
	})
}

// BenchmarkSignalDeliveryPath is ablation A1: reverse-TLB vs two-stage
// dependency-record lookup.
func BenchmarkSignalDeliveryPath(b *testing.B) {
	var res exp.SignalAblation
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.MeasureSignalAblation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RTLBMicros, "sim-µs-rtlb")
	b.ReportMetric(res.TwoStageMicros, "sim-µs-twostage")
}

// BenchmarkDBPolicy is ablation A7: fixed LRU vs application-controlled
// replacement.
func BenchmarkDBPolicy(b *testing.B) {
	var res exp.DBComparison
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.MeasureDB()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LRUMicros/1000, "sim-ms-lru")
	b.ReportMetric(res.QAMicros/1000, "sim-ms-queryaware")
	b.ReportMetric(float64(res.LRUReads), "reads-lru")
	b.ReportMetric(float64(res.QAReads), "reads-queryaware")
}

// BenchmarkRealtimeLatency is ablation A5: locked objects bound
// activation latency under reclamation pressure.
func BenchmarkRealtimeLatency(b *testing.B) {
	var res exp.RTResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.MeasureRT()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Quiet.MaxLatencyUS, "sim-µs-max-idle")
	b.ReportMetric(res.Loaded.MaxLatencyUS, "sim-µs-max-pressure")
}

func benchName(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
