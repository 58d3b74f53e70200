// Package exp is the evaluation harness: one function per table, figure
// and ablation of the paper, each returning a structured result whose
// String() renders the same rows the paper reports next to the measured
// values. Experiments is the catalog cmd/ckbench runs; the
// repository-root benchmarks wrap the functions with testing.B metrics.
// See DESIGN.md §3 for the experiment index.
package exp

import (
	"fmt"
	"math"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/srm"
)

// Table1 reproduces paper Table 1: Cache Kernel object sizes and cache
// geometry. The sizes are the paper's, which local-RAM budgeting
// accounts; the Go structs that hold the descriptors are a fact about
// the host (their size depends on the word size), so they are not
// reported.
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one object class.
type Table1Row struct {
	Object     string
	PaperBytes int
	CacheSize  int
}

// MeasureTable1 reads the live configuration.
func MeasureTable1() Table1 {
	cfg := ck.DefaultConfig()
	return Table1{Rows: []Table1Row{
		{"Kernel", ck.KernelObjBytes, cfg.KernelSlots},
		{"AddrSpace", ck.SpaceObjBytes, cfg.SpaceSlots},
		{"Thread", ck.ThreadObjBytes, cfg.ThreadSlots},
		{"MemMapEntry", ck.MappingObjBytes, cfg.MappingSlots},
	}}
}

func (t Table1) String() string {
	s := fmt.Sprintf("%-12s %12s %10s\n", "object", "paper bytes", "cache size")
	for _, r := range t.Rows {
		s += fmt.Sprintf("%-12s %12d %10d\n", r.Object, r.PaperBytes, r.CacheSize)
	}
	return s
}

// MeasureTable2 re-exports the Cache Kernel's calibrated measurement.
func MeasureTable2() (ck.Table2, error) { return ck.MeasureTable2(ck.Config{}) }

// MemBudget reproduces the Section 5.2 space arithmetic from the live
// configuration: descriptor memory against the 2 MB local RAM, and the
// mapping-descriptor overhead on mapped space.
type MemBudget struct {
	ThreadBytes int
	// ObjectPct is thread+space+kernel descriptors as a share of local
	// RAM (paper: "these descriptors constitute about 10 percent").
	ObjectPct      float64
	MappingBytes   int
	MappingPct     float64 // (paper: ~50 %)
	TotalDescBytes int
	LocalRAMBytes  int
	MapOverheadPct float64 // descriptor bytes per mapped byte (paper: 0.4 %)
	TablesPerSpace int     // page-table bytes for a reasonably clustered space (paper: ~5 KB)
}

// MeasureMemBudget computes the arithmetic.
func MeasureMemBudget() MemBudget {
	cfg := ck.DefaultConfig()
	hwCfg := hw.DefaultConfig()
	threadBytes := cfg.ThreadSlots * ck.ThreadObjBytes
	mappingBytes := cfg.MappingSlots * ck.MappingObjBytes
	total := threadBytes + mappingBytes +
		cfg.KernelSlots*ck.KernelObjBytes + cfg.SpaceSlots*ck.SpaceObjBytes
	objectBytes := threadBytes +
		cfg.KernelSlots*ck.KernelObjBytes + cfg.SpaceSlots*ck.SpaceObjBytes
	return MemBudget{
		ThreadBytes:    threadBytes,
		ObjectPct:      100 * float64(objectBytes) / float64(hwCfg.LocalRAMBytes),
		MappingBytes:   mappingBytes,
		MappingPct:     100 * float64(mappingBytes) / float64(hwCfg.LocalRAMBytes),
		TotalDescBytes: total,
		LocalRAMBytes:  hwCfg.LocalRAMBytes,
		// 16 bytes per 4096-byte page.
		MapOverheadPct: 100 * 16.0 / 4096.0,
		// Root (512) + two second-level tables (512 each) + fourteen
		// third-level tables (256 each) for a clustered space: about
		// 5 KB, as the paper argues.
		TablesPerSpace: 512 + 2*512 + 14*256,
	}
}

func (m MemBudget) String() string {
	return fmt.Sprintf(
		"thread descriptors: %d KB; object descriptors = %.1f%% of local RAM (paper ~10%%)\n"+
			"mapping descriptors: %d KB = %.1f%% of local RAM (paper ~50%%)\n"+
			"all descriptors: %d KB of %d KB local RAM\n"+
			"mapping overhead on mapped space: %.2f%% (paper 0.4%%)\n"+
			"page tables per clustered space: ~%d bytes (paper ~5 KB)\n",
		m.ThreadBytes/1024, m.ObjectPct, m.MappingBytes/1024, m.MappingPct,
		m.TotalDescBytes/1024, m.LocalRAMBytes/1024,
		m.MapOverheadPct, m.TablesPerSpace)
}

// ThrashPoint is one working-set size in the mapping-cache sweep.
type ThrashPoint struct {
	WorkingSetPages int
	CyclesPerTouch  float64
	Faults          uint64
	Writebacks      uint64
}

// ThrashResult is the S5.2b sweep: per-access overhead stays flat while
// the touched working set fits the mapping-descriptor cache and cliffs
// once it exceeds it — the paper's claim that programs with reasonable
// locality see minimal replacement interference.
type ThrashResult struct {
	MappingSlots int
	Points       []ThrashPoint
}

func (t ThrashResult) String() string {
	s := fmt.Sprintf("mapping slots: %d\n%-18s %16s %10s %10s\n",
		t.MappingSlots, "working set (pages)", "cycles/touch", "faults", "writebacks")
	for _, p := range t.Points {
		s += fmt.Sprintf("%-18d %16.1f %10d %10d\n",
			p.WorkingSetPages, p.CyclesPerTouch, p.Faults, p.Writebacks)
	}
	return s
}

// MeasureThrash sweeps touched-page working sets against a mapping cache
// of the given size (0 = a scaled-down 4096 so the sweep runs quickly;
// the paper's pool is 65536).
func MeasureThrash(mappingSlots int, workingSets []int, laps int) (ThrashResult, error) {
	if mappingSlots == 0 {
		mappingSlots = 4096
	}
	if laps == 0 {
		laps = 3
	}
	if workingSets == nil {
		workingSets = []int{
			mappingSlots / 4, mappingSlots / 2, mappingSlots * 3 / 4,
			mappingSlots * 15 / 16, mappingSlots * 9 / 8, mappingSlots * 3 / 2,
		}
	}
	res := ThrashResult{MappingSlots: mappingSlots}
	for _, ws := range workingSets {
		pt, err := thrashOne(mappingSlots, ws, laps)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func thrashOne(slots, pages, laps int) (ThrashPoint, error) {
	m := hw.NewMachine(hw.DefaultConfig())
	defer m.Close()
	k, err := ck.New(m.MPMs[0], ck.Config{MappingSlots: slots, PMapBuckets: slots / 4})
	if err != nil {
		return ThrashPoint{}, err
	}
	var pt ThrashPoint
	var runErr error
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		base := uint32(0x2000_0000)
		// Demand-map on fault with frames recycled modulo a small pool:
		// the experiment measures mapping-descriptor replacement, not
		// data, so many virtual pages may share physical frames.
		s.OnFault = func(fe *hw.Exec, th, space ck.ObjID, va uint32, write bool, kind hw.Fault) (bool, bool) {
			if va < base || va >= base+uint32(pages)*hw.PageSize {
				return false, false
			}
			err := k.LoadMappingAndResume(fe, space, ck.MappingSpec{
				VA:       va &^ (hw.PageSize - 1),
				PFN:      2048 + (va>>hw.PageShift)%1024,
				Writable: true, Cachable: true,
			})
			return true, err == nil
		}
		// Warm lap, then measured laps.
		for p := 0; p < pages; p++ {
			e.Touch(base+uint32(p)*hw.PageSize, false)
		}
		f0 := k.Stats.Faults
		w0 := k.Stats.MappingWritebacks
		t0 := e.Now()
		for lap := 0; lap < laps; lap++ {
			for p := 0; p < pages; p++ {
				e.Touch(base+uint32(p)*hw.PageSize, false)
			}
		}
		pt.WorkingSetPages = pages
		pt.CyclesPerTouch = float64(e.Now()-t0) / float64(laps*pages)
		pt.Faults = k.Stats.Faults - f0
		pt.Writebacks = k.Stats.MappingWritebacks - w0
	})
	if err != nil {
		return pt, err
	}
	m.SetMaxSteps(2_000_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return pt, err
	}
	return pt, runErr
}
