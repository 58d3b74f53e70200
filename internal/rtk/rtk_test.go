package rtk

import (
	"math"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/srm"
)

// runRT boots a machine with a real-time kernel and (optionally) a
// background kernel that churns mappings and burns CPU to create cache
// pressure.
func runRT(t *testing.T, withPressure bool, ckCfg ck.Config) (TaskStats, *ck.Kernel, uint64) {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	var stats TaskStats
	var rtWritebacks uint64
	var runErr error
	stop := false
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		if withPressure {
			_, err := s.Launch(e, "churn", srm.LaunchOpts{Groups: 8, MainPrio: 20, MaxPrio: 22},
				func(ak *aklib.AppKernel, me *hw.Exec) {
					// Load mappings well past the (small) descriptor pool
					// so reclamation runs constantly.
					va := uint32(0x5000_0000)
					for i := 0; !stop; i++ {
						pfn, ok := ak.Frames.Alloc()
						if !ok {
							break
						}
						_ = ak.CK.LoadMapping(me, ak.SpaceID, ck.MappingSpec{
							VA: va + uint32(i%512)*hw.PageSize, PFN: pfn, Writable: true,
						})
						ak.Frames.Free(pfn)
						me.Charge(2000)
					}
				})
			if err != nil {
				t.Errorf("launch churn: %v", err)
			}
		}
		lrt, err := s.Launch(e, "rt", srm.LaunchOpts{Groups: 2, MainPrio: 30, Locked: true},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				ak.OnMappingWB = func(ck.MappingState) { rtWritebacks++ }
				ak.OnThreadWB = func(ck.ObjID, ck.ThreadState) { rtWritebacks++ }
				rt, err := New(me, ak, 2)
				if err != nil {
					runErr = err
					return
				}
				stats, runErr = rt.RunTask(me, TaskConfig{
					Name: "control", PeriodUS: 2000, BudgetCycles: 5000,
					Activations: 20, Priority: 45,
				})
				stop = true
			})
		if err != nil {
			t.Errorf("launch rt: %v", err)
			return
		}
		_ = lrt
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(400_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return stats, k, rtWritebacks
}

func TestPeriodicTaskMeetsDeadlines(t *testing.T) {
	stats, _, _ := runRT(t, false, ck.Config{})
	if stats.Activations != 20 {
		t.Fatalf("activations = %d", stats.Activations)
	}
	if stats.MissedPeriods != 0 {
		t.Fatalf("missed periods = %d", stats.MissedPeriods)
	}
	if stats.MaxLatencyUS > 200 {
		t.Fatalf("max latency = %.1f µs", stats.MaxLatencyUS)
	}
}

func TestLockedObjectsSurvivePressure(t *testing.T) {
	// A small mapping pool guarantees the churn kernel forces constant
	// reclamation; the locked real-time objects must never be victims.
	cfg := ck.Config{MappingSlots: 64, PMapBuckets: 64}
	stats, k, rtWB := runRT(t, true, cfg)
	if stats.Activations != 20 {
		t.Fatalf("activations = %d", stats.Activations)
	}
	if rtWB != 0 {
		t.Fatalf("real-time kernel suffered %d writebacks under pressure", rtWB)
	}
	if k.Stats.MappingWritebacks == 0 {
		t.Fatal("churn kernel generated no reclamation (test not exercising pressure)")
	}
	if stats.MissedPeriods != 0 {
		t.Fatalf("missed periods under pressure = %d", stats.MissedPeriods)
	}
	t.Logf("under pressure: mean latency %.1f µs, max %.1f µs, churn writebacks %d",
		stats.MeanLatencyUS(), stats.MaxLatencyUS, k.Stats.MappingWritebacks)
}

func TestLatencyComparableUnderPressure(t *testing.T) {
	quiet, _, _ := runRT(t, false, ck.Config{MappingSlots: 64, PMapBuckets: 64})
	loaded, _, _ := runRT(t, true, ck.Config{MappingSlots: 64, PMapBuckets: 64})
	t.Logf("quiet max %.1f µs, loaded max %.1f µs", quiet.MaxLatencyUS, loaded.MaxLatencyUS)
	// Locked objects and priority keep latency bounded: within a small
	// constant factor plus slack for interrupt-window effects.
	if loaded.MaxLatencyUS > quiet.MaxLatencyUS*4+100 {
		t.Fatalf("latency blew up under pressure: %.1f vs %.1f µs",
			loaded.MaxLatencyUS, quiet.MaxLatencyUS)
	}
}
