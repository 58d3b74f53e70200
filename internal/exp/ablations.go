package exp

import (
	"fmt"
	"math"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/dbk"
	"vpp/internal/hw"
	"vpp/internal/sim"
	"vpp/internal/simk"
	"vpp/internal/srm"
)

// SignalAblation compares reverse-TLB signal delivery with the two-stage
// dependency-record lookup (ablation A1, paper §4.1).
type SignalAblation struct {
	RTLBMicros     float64
	TwoStageMicros float64
}

func (a SignalAblation) String() string {
	return fmt.Sprintf("signal delivery: reverse-TLB %.1f µs, two-stage %.1f µs (%.0f%% slower)\n",
		a.RTLBMicros, a.TwoStageMicros, 100*(a.TwoStageMicros/a.RTLBMicros-1))
}

// MeasureSignalAblation runs the cross-processor signal benchmark twice.
func MeasureSignalAblation() (SignalAblation, error) {
	var out SignalAblation
	with, err := signalLatency(ck.Config{})
	if err != nil {
		return out, err
	}
	without, err := signalLatency(ck.Config{RTLBEntries: -1})
	if err != nil {
		return out, err
	}
	out.RTLBMicros = with
	out.TwoStageMicros = without
	return out, nil
}

// signalLatency measures steady-state delivery time for one receiver.
func signalLatency(cfg ck.Config) (float64, error) {
	m := hw.NewMachine(hw.DefaultConfig())
	defer m.Close()
	k, err := ck.New(m.MPMs[0], cfg)
	if err != nil {
		return 0, err
	}
	var total float64
	var n int
	var runErr error
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		const rounds = 8
		pfn, _ := s.Frames.Alloc()
		var sendAt uint64
		recvDone := 0
		rth := s.NewThread("recv", s.SpaceID, 35, func(re *hw.Exec) {
			for i := 0; i < rounds; i++ {
				if _, err := k.WaitSignal(re); err != nil {
					return
				}
				if i >= 2 { // skip warmup
					total += hw.MicrosFromCycles(re.Now() - sendAt)
					n++
				}
				k.SignalReturn(re)
				recvDone++
			}
		})
		if err := rth.Load(e, false); err != nil {
			runErr = err
			return
		}
		if err := k.LoadMapping(e, s.SpaceID, ck.MappingSpec{
			VA: 0x5000_0000, PFN: pfn, Message: true, SignalThread: rth.TID,
		}); err != nil {
			runErr = err
			return
		}
		if err := k.LoadMapping(e, s.SpaceID, ck.MappingSpec{
			VA: 0x5100_0000, PFN: pfn, Writable: true, Message: true,
		}); err != nil {
			runErr = err
			return
		}
		for i := 0; i < rounds; i++ {
			e.Charge(hw.CyclesFromMicros(400))
			sendAt = e.Now()
			e.Store32(0x5100_0000, uint32(i))
			for recvDone <= i {
				e.Charge(500)
			}
		}
	})
	if err != nil {
		return 0, err
	}
	m.SetMaxSteps(100_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return 0, err
	}
	if runErr != nil {
		return 0, runErr
	}
	return total / float64(n), nil
}

// MP3DComparison is the S5.2c locality experiment.
type MP3DComparison struct {
	Locality  simk.MP3DResult
	Scattered simk.MP3DResult
}

// Slowdown reports the particle-phase degradation factor.
func (c MP3DComparison) Slowdown() float64 {
	return c.Scattered.MoveMicrosPerStep / c.Locality.MoveMicrosPerStep
}

func (c MP3DComparison) String() string {
	return fmt.Sprintf(
		"mp3d locality:  %8.0f µs/step particle phase, TLB miss %.4f\n"+
			"mp3d scattered: %8.0f µs/step particle phase, TLB miss %.4f\n"+
			"degradation: %.0f%% (paper: up to 25%%)\n",
		c.Locality.MoveMicrosPerStep, c.Locality.TLBMissRate,
		c.Scattered.MoveMicrosPerStep, c.Scattered.TLBMissRate,
		100*(c.Slowdown()-1))
}

// MeasureMP3D runs the wind tunnel with and without particle locality.
func MeasureMP3D(cfg simk.MP3DConfig) (MP3DComparison, error) {
	if cfg.CellsX == 0 {
		cfg = simk.MP3DConfig{
			CellsX: 64, CellsY: 16, ParticlesPerCell: 16,
			Workers: 4, Steps: 3, Seed: 3, ComputePerParticle: 24,
		}
	}
	var out MP3DComparison
	cfg.Locality = true
	r1, err := runMP3DOnce(cfg)
	if err != nil {
		return out, err
	}
	cfg.Locality = false
	r2, err := runMP3DOnce(cfg)
	if err != nil {
		return out, err
	}
	out.Locality, out.Scattered = r1, r2
	return out, nil
}

func runMP3DOnce(cfg simk.MP3DConfig) (simk.MP3DResult, error) {
	m := hw.NewMachine(hw.DefaultConfig())
	defer m.Close()
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		return simk.MP3DResult{}, err
	}
	var res simk.MP3DResult
	var runErr error
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, err := s.Launch(e, "simk", srm.LaunchOpts{Groups: 24, MainPrio: 28},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				mp, err := simk.NewMP3D(me, ak, cfg)
				if err != nil {
					runErr = err
					return
				}
				res, runErr = mp.Run(me)
			})
		if err != nil {
			runErr = err
		}
	})
	if err != nil {
		return res, err
	}
	m.SetMaxSteps(1_000_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return res, err
	}
	return res, runErr
}

// DBComparison is ablation A7: fixed LRU vs application-controlled
// replacement on the intro's mixed workload.
type DBComparison struct {
	LRUMicros, QAMicros float64
	LRUReads, QAReads   uint64
}

func (c DBComparison) String() string {
	return fmt.Sprintf(
		"db LRU:         %8.0f µs, %4d disk reads\n"+
			"db query-aware: %8.0f µs, %4d disk reads (%.1fx fewer reads)\n",
		c.LRUMicros, c.LRUReads, c.QAMicros, c.QAReads,
		float64(c.LRUReads)/float64(c.QAReads))
}

// MeasureDB runs the mixed workload under both policies.
func MeasureDB() (DBComparison, error) {
	var out DBComparison
	lt, lr, err := dbWorkload(dbk.PolicyLRU)
	if err != nil {
		return out, err
	}
	qt, qr, err := dbWorkload(dbk.PolicyQueryAware)
	if err != nil {
		return out, err
	}
	out.LRUMicros, out.LRUReads = lt, lr
	out.QAMicros, out.QAReads = qt, qr
	return out, nil
}

func dbWorkload(policy dbk.Policy) (float64, uint64, error) {
	const tablePages = 64
	const poolFrames = 16
	m := hw.NewMachine(hw.DefaultConfig())
	defer m.Close()
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		return 0, 0, err
	}
	var micros float64
	var reads uint64
	var runErr error
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, err := s.Launch(e, "db", srm.LaunchOpts{Groups: 8, MainPrio: 26},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				store := dbk.NewTableStore(tablePages, 2*1000*hw.CyclesPerMicrosecond)
				db, err := dbk.New(me, ak, store, poolFrames, policy)
				if err != nil {
					runErr = err
					return
				}
				r := sim.NewRand(11)
				hot := make([]uint32, 8)
				for i := range hot {
					hot[i] = uint32(i) * (tablePages / 8)
				}
				t0 := me.Now()
				for round := 0; round < 4; round++ {
					for i := 0; i < 64; i++ {
						if _, err := db.Lookup(me, hot[r.Intn(len(hot))]); err != nil {
							runErr = err
							return
						}
					}
					if _, err := db.SeqScan(me); err != nil {
						runErr = err
						return
					}
				}
				micros = hw.MicrosFromCycles(me.Now() - t0)
				reads = store.Reads
			})
		if err != nil {
			runErr = err
		}
	})
	if err != nil {
		return 0, 0, err
	}
	m.SetMaxSteps(400_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return 0, 0, err
	}
	return micros, reads, runErr
}
