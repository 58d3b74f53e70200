package exp

import (
	"fmt"
	"math"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/rtk"
	"vpp/internal/srm"
)

// RTResult is ablation A5: periodic-task activation latency with locked
// objects, idle vs under mapping-churn pressure.
type RTResult struct {
	Quiet, Loaded rtk.TaskStats
}

func (r RTResult) String() string {
	return fmt.Sprintf(
		"rt task (locked objects): idle mean %.1f µs max %.1f µs, "+
			"under churn mean %.1f µs max %.1f µs, missed %d/%d\n",
		r.Quiet.MeanLatencyUS(), r.Quiet.MaxLatencyUS,
		r.Loaded.MeanLatencyUS(), r.Loaded.MaxLatencyUS,
		r.Quiet.MissedPeriods, r.Loaded.MissedPeriods)
}

// MeasureRT runs the periodic task twice.
func MeasureRT() (RTResult, error) {
	var out RTResult
	q, err := rtRun(false)
	if err != nil {
		return out, err
	}
	l, err := rtRun(true)
	if err != nil {
		return out, err
	}
	out.Quiet, out.Loaded = q, l
	return out, nil
}

func rtRun(pressure bool) (rtk.TaskStats, error) {
	m := hw.NewMachine(hw.DefaultConfig())
	defer m.Close()
	k, err := ck.New(m.MPMs[0], ck.Config{MappingSlots: 64, PMapBuckets: 64})
	if err != nil {
		return rtk.TaskStats{}, err
	}
	var stats rtk.TaskStats
	var runErr error
	stop := false
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		if pressure {
			_, err := s.Launch(e, "churn", srm.LaunchOpts{Groups: 8, MainPrio: 20, MaxPrio: 22},
				func(ak *aklib.AppKernel, me *hw.Exec) {
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
				runErr = err
				return
			}
		}
		_, err := s.Launch(e, "rt", srm.LaunchOpts{Groups: 2, MainPrio: 30, Locked: true},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				rt, err := rtk.New(me, ak, 2)
				if err != nil {
					runErr = err
					return
				}
				stats, runErr = rt.RunTask(me, rtk.TaskConfig{
					Name: "control", PeriodUS: 2000, BudgetCycles: 5000,
					Activations: 20, Priority: 45,
				})
				stop = true
			})
		if err != nil {
			runErr = err
		}
	})
	if err != nil {
		return stats, err
	}
	m.SetMaxSteps(400_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return stats, err
	}
	return stats, runErr
}
