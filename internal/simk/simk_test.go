package simk

import (
	"math"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/srm"
)

// runMP3D boots a machine and runs one MP3D configuration inside a
// launched simulation kernel.
func runMP3D(t *testing.T, cfg MP3DConfig) MP3DResult {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var res MP3DResult
	var runErr error
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, err := s.Launch(e, "simk", srm.LaunchOpts{Groups: 24, MainPrio: 28},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				mp, err := NewMP3D(me, ak, cfg)
				if err != nil {
					runErr = err
					return
				}
				res, runErr = mp.Run(me)
			})
		if err != nil {
			t.Errorf("launch: %v", err)
		}
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
	return res
}

func TestMP3DRunsAndConservesParticles(t *testing.T) {
	cfg := DefaultMP3DConfig()
	cfg.CellsX, cfg.CellsY, cfg.ParticlesPerCell = 8, 4, 8
	cfg.Steps = 4
	res := runMP3D(t, cfg)
	if res.Particles != 8*4*8 {
		t.Fatalf("particles = %d", res.Particles)
	}
	if res.CyclesPerStep <= 0 {
		t.Fatal("no time charged")
	}
	if res.Moves == 0 {
		t.Fatal("no particles crossed cells (rightward flow expected)")
	}
}

func TestMP3DLocalityRecopies(t *testing.T) {
	cfg := DefaultMP3DConfig()
	cfg.CellsX, cfg.CellsY, cfg.ParticlesPerCell = 8, 4, 8
	cfg.Steps = 4
	res := runMP3D(t, cfg)
	if res.Recopies == 0 {
		t.Fatal("locality mode never recopied a crossing particle")
	}
	cfg.Locality = false
	res2 := runMP3D(t, cfg)
	if res2.Recopies != 0 {
		t.Fatal("scattered mode recopied particles")
	}
}

func TestMP3DScatteredDegradesLocality(t *testing.T) {
	// A working set large enough to stress the 64-entry TLBs: 64x16
	// cells x 16 particles = 16384 particles over 256+ pages per lap.
	cfg := MP3DConfig{
		CellsX: 64, CellsY: 16, ParticlesPerCell: 16,
		Workers: 4, Steps: 3, Locality: true, Seed: 3,
		ComputePerParticle: 24,
	}
	good := runMP3D(t, cfg)
	cfg.Locality = false
	bad := runMP3D(t, cfg)
	slowdown := bad.MoveMicrosPerStep / good.MoveMicrosPerStep
	t.Logf("particle phase: locality %.0f µs/step (TLB miss %.4f), scattered %.0f µs/step (TLB miss %.4f), slowdown %.2fx; whole step %.0f vs %.0f µs",
		good.MoveMicrosPerStep, good.TLBMissRate, bad.MoveMicrosPerStep, bad.TLBMissRate, slowdown,
		good.MicrosPerStep, bad.MicrosPerStep)
	// Paper §5.2: up to 25 % degradation from poor page locality.
	if slowdown < 1.1 {
		t.Fatalf("scattered layout only %.2fx slower; expected noticeable degradation", slowdown)
	}
	if bad.TLBMissRate <= good.TLBMissRate {
		t.Fatal("scattered layout did not increase TLB misses")
	}
	if bad.MicrosPerStep <= good.MicrosPerStep {
		t.Fatal("scattered layout did not slow the whole step at all")
	}
}

func TestBarrierProtocol(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	order := []string{}
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, err := s.Launch(e, "barrier", srm.LaunchOpts{Groups: 2, MainPrio: 28},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				bar := &Barrier{K: k, Coord: k.CurrentThread(me)}
				const n = 3
				for i := 0; i < n; i++ {
					i := i
					th := ak.NewThread("w", ak.SpaceID, 20, func(we *hw.Exec) {
						for round := 0; round < 2; round++ {
							we.Charge(uint64(1000 * (i + 1)))
							if err := bar.Arrive(we, i); err != nil {
								return
							}
						}
					})
					if err := th.Load(me, false); err != nil {
						t.Errorf("load: %v", err)
						return
					}
					bar.Workers = append(bar.Workers, th.TID)
				}
				for round := 0; round < 2; round++ {
					if err := bar.Gather(me); err != nil {
						t.Errorf("gather: %v", err)
						return
					}
					order = append(order, "gathered")
					if err := bar.Release(me); err != nil {
						t.Errorf("release: %v", err)
						return
					}
				}
			})
		if err != nil {
			t.Errorf("launch: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(50_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("rounds gathered = %d", len(order))
	}
}
