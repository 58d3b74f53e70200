package exp

import (
	"fmt"
	"math"

	"vpp/internal/ck"
	"vpp/internal/ckctl"
	"vpp/internal/hw"
)

// OrchestrationResult measures the ckctl plane's live cross-MPM kernel
// migration (DESIGN §12): a pod fleet on a three-module machine, a
// rolling upgrade live-migrating every running instance, and the
// per-pod virtual-time blackout — last source-side dispatch to first
// target-side dispatch of the moved kernel's threads. Migration is a
// records handoff (quiesce, expel writeback, cross-module message,
// adopt), so the blackout is dominated by descriptor writeback plus the
// run-queue delay on the saturated target, not by state copying.
type OrchestrationResult struct {
	MPMs int
	Pods int

	// Upgrade outcome: issued migrations, pods skipped (batch pods that
	// completed before their turn), and the serial upgrade's span.
	Migrated int
	Skipped  int
	Makespan uint64

	// Blackout distribution over the completed migrations, in cycles.
	BlackoutMin  uint64
	BlackoutMean float64
	BlackoutMax  uint64

	// Census at the horizon.
	Completed int
	Running   int
	Restarts  int

	// FinalClock/Steps fingerprint the run for the determinism golden.
	FinalClock uint64
	Steps      uint64
}

func (r OrchestrationResult) String() string {
	s := fmt.Sprintf("fleet: %d pods over %d modules; rolling upgrade migrated %d (%d skipped)\n",
		r.Pods, r.MPMs, r.Migrated, r.Skipped)
	s += fmt.Sprintf("upgrade makespan: %.1f ms of virtual time\n", us(r.Makespan)/1000)
	s += fmt.Sprintf("%-24s %12s\n", "migration blackout", "virtual µs")
	s += fmt.Sprintf("%-24s %12.1f\n", "  min", us(r.BlackoutMin))
	s += fmt.Sprintf("%-24s %12.1f\n", "  mean", r.BlackoutMean/hw.CyclesPerMicrosecond)
	s += fmt.Sprintf("%-24s %12.1f\n", "  max", us(r.BlackoutMax))
	s += fmt.Sprintf("at horizon: %d running, %d completed, %d restarts\n",
		r.Running, r.Completed, r.Restarts)
	s += fmt.Sprintf("final virtual clock %.1f ms\n", us(r.FinalClock)/1000)
	return s
}

// RunOrchestrationWorkload boots the ckctl plane over a three-module
// machine, launches a 24-pod fleet (20 restart-on-failure heartbeat
// pods plus 4 bounded batch pods), schedules a rolling upgrade at a
// fixed virtual time, and reports the migration blackout distribution.
// No chaos: every migration must complete and every oracle-style check
// here is fatal. Fully deterministic; the orchestration golden hashes
// its dispatch schedule.
func RunOrchestrationWorkload(trace func(name string, at uint64)) (OrchestrationResult, error) {
	const (
		mpms      = 3
		pods      = 24
		batch     = 4
		beatUS    = 150
		upgradeUS = 10_000
	)
	var res OrchestrationResult
	res.MPMs = mpms
	res.Pods = pods

	cfg := hw.DefaultConfig()
	cfg.MPMs = mpms
	cfg.CPUsPerMPM = 2
	cfg.PhysMemBytes = 256 << 20
	m := hw.NewMachine(cfg)
	defer m.Close()
	m.SetTraceDispatch(trace)

	ccfg := ckctl.DefaultConfig()
	// The same scaling the simulation harness uses: the launch wave is
	// fleet-sized and a migrated pod queues behind time-sliced peers on
	// the saturated target, so the stock timeouts would misfire.
	ccfg.Horizon = hw.CyclesFromMicros(upgradeUS + pods*15_000 + 2_000*pods*pods/mpms + 400_000)
	ccfg.LaunchTimeout = hw.CyclesFromMicros(5_000 + 500*pods)
	ccfg.MigrateTimeout = hw.CyclesFromMicros(100_000 + 2_000*pods)
	ccfg.CK = ck.Config{KernelSlots: pods + 8, SpaceSlots: pods + 16}

	spec := ckctl.Spec{Kernels: []ckctl.KernelSpec{
		{Name: "fleet", Count: pods - batch, MPM: -1,
			Restart: ckctl.RestartOnFailure, BeatUS: beatUS},
		{Name: "batch", Count: batch, MPM: -1,
			Restart: ckctl.RestartNever, Beats: 200, BeatUS: beatUS},
	}}
	c, err := ckctl.New(m, ccfg, spec)
	if err != nil {
		return res, err
	}
	c.ScheduleRollingUpgrade(hw.CyclesFromMicros(upgradeUS))

	m.SetMaxSteps(2_000_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return res, err
	}
	if bad := c.Verify(); len(bad) > 0 {
		return res, fmt.Errorf("exp: cluster verify: %s (+%d more)", bad[0], len(bad)-1)
	}

	st := c.Status()
	if st.Upgrade == nil || st.Upgrade.DoneAt == 0 {
		return res, fmt.Errorf("exp: rolling upgrade did not finish by the horizon")
	}
	res.Migrated = st.Upgrade.Migrated
	res.Skipped = st.Upgrade.Skipped
	res.Makespan = st.Upgrade.Makespan
	var sum uint64
	for _, mg := range st.Migrations {
		if mg.Failed {
			return res, fmt.Errorf("exp: migration %s failed without chaos: %s", mg.Name, mg.Err)
		}
		if res.BlackoutMin == 0 || mg.Blackout < res.BlackoutMin {
			res.BlackoutMin = mg.Blackout
		}
		if mg.Blackout > res.BlackoutMax {
			res.BlackoutMax = mg.Blackout
		}
		sum += mg.Blackout
	}
	if len(st.Migrations) > 0 {
		res.BlackoutMean = float64(sum) / float64(len(st.Migrations))
	}
	for _, in := range st.Instances {
		switch in.Phase {
		case "completed":
			res.Completed++
		case "running":
			res.Running++
		default:
			return res, fmt.Errorf("exp: pod %s: phase %s at horizon", in.Name, in.Phase)
		}
		res.Restarts += in.Restarts
	}
	res.FinalClock = m.Now()
	res.Steps = m.Steps()
	return res, nil
}
