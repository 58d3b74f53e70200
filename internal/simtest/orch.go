package simtest

import (
	"strings"

	"vpp/internal/chaos"
	"vpp/internal/ck"
	"vpp/internal/ckctl"
	"vpp/internal/hw"
)

// runOrch executes one orchestration-family scenario: the ckctl plane
// over every MPM, a two-group pod fleet, a rolling upgrade live-migrating
// every instance, and the scenario's fault plan. The oracles are the
// op-stream family's (monotonicity, schedule hash) plus ckctl.Verify's
// conservation/coherence/liveness/invariants sweep and the orchestration
// properties below. Byte-identical run to run, like everything else
// under the virtual clock.
func runOrch(sc Scenario, trace func(name string, at uint64), probe bool) *Result {
	res := &Result{Scenario: sc}
	o := sc.Orch
	h := &harness{sc: sc, horizon: hw.CyclesFromMicros(float64(sc.HorizonUS))}

	mcfg := hw.DefaultConfig()
	mcfg.MPMs = sc.MPMs
	mcfg.CPUsPerMPM = sc.CPUsPerMPM
	mcfg.PhysMemBytes = 256 << 20
	h.m = hw.NewMachine(mcfg)
	defer h.m.Close()
	h.installTrace(trace)

	// The fleet: a long-running on-failure group (the migration
	// workload) plus a bounded batch group with no restart policy, so
	// kill chaos exercises both reconcile outcomes.
	batch := o.Pods / 5
	spec := ckctl.Spec{Kernels: []ckctl.KernelSpec{
		{Name: "fleet", Count: o.Pods - batch, MPM: -1,
			Restart: ckctl.RestartOnFailure, BeatUS: float64(o.BeatUS)},
		{Name: "batch", Count: batch, MPM: -1,
			Restart: ckctl.RestartNever, Beats: 200, BeatUS: float64(o.BeatUS)},
	}}
	cfg := ckctl.DefaultConfig()
	cfg.Horizon = h.horizon
	// The default control timeouts assume an unloaded cluster; here the
	// launch wave is fleet-sized and a migration's first target dispatch
	// waits out a saturated run queue, so both are scaled up to keep the
	// convergence fallbacks (reissue, relaunch-at-sighting) for actual
	// faults rather than ordinary queueing.
	cfg.LaunchTimeout = hw.CyclesFromMicros(float64(5_000 + 500*o.Pods))
	cfg.MigrateTimeout = hw.CyclesFromMicros(float64(100_000 + 2_000*o.Pods))
	// Provision each module's descriptor caches for the whole fleet: the
	// paper's default 16 kernel slots would swap-thrash dozens of pod
	// kernels into a restart storm (descriptor-cache pressure at kernel
	// granularity — interesting, but a different scenario than an
	// upgrade that must converge).
	cfg.CK = ck.Config{
		KernelSlots:  o.Pods + 8,
		SpaceSlots:   o.Pods + 16,
		ThreadSlots:  sc.ThreadSlots,
		MappingSlots: sc.MappingSlots,
	}
	c, err := ckctl.New(h.m, cfg, spec)
	if err != nil {
		h.failf("op", "ckctl.New: %v", err)
		res.Failures = h.failures
		return res
	}

	h.inj = chaos.New(chaos.Plan{Seed: sc.FaultSeed, Faults: sc.Faults})
	h.inj.Arm(h.m, c.Kernels()...)
	c.ScheduleRollingUpgrade(hw.CyclesFromMicros(float64(o.UpgradeAtUS)))

	h.m.SetMaxSteps(2_000_000_000)
	if runErr := h.runMachine(probe); runErr != nil {
		h.failf("op", "machine run: %v", runErr)
	}
	if h.panicked {
		res.Orch = &OrchStats{}
		return h.result(res)
	}

	for _, p := range c.Verify() {
		oracle, detail := splitOracle(p)
		h.failf(oracle, "%s", detail)
	}
	st := c.Status()
	stats := &OrchStats{Instances: len(st.Instances)}
	for _, in := range st.Instances {
		stats.Restarts += in.Restarts
		switch in.Phase {
		case "completed":
			stats.Completed++
		case "running":
			stats.Running++
		case "failed":
			stats.Failed++
		}
		// Convergence: the controller reconciles until the horizon, and
		// every fault instant is well before it, so a restartable pod
		// still pending/launching at the end is a stuck reconcile loop.
		switch {
		case in.Policy == "no":
			if in.Phase != "running" && in.Phase != "completed" && in.Phase != "failed" {
				h.failf("orch", "pod %s (policy no): phase %s at horizon", in.Name, in.Phase)
			}
		case in.Phase != "running" && in.Phase != "completed":
			h.failf("orch", "pod %s (policy %s): phase %s at horizon, want running/completed",
				in.Name, in.Policy, in.Phase)
		}
		if in.Phase == "failed" && !o.Chaotic {
			h.failf("orch", "pod %s failed without kill/crash chaos", in.Name)
		}
	}
	for _, n := range st.Nodes {
		stats.Recoveries += n.Recoveries
		stats.Revived += n.Revived
	}
	// The watchdogs only regenerate services killed out from under the
	// plane; a revival without kill/crash chaos means one misfired (e.g.
	// on a service that retired cleanly at the horizon).
	if stats.Revived > 0 && !o.Chaotic {
		h.failf("orch", "%d service revivals without kill/crash chaos", stats.Revived)
	}
	for _, m := range st.Migrations {
		if m.Failed {
			stats.MigFailed++
			if !o.Chaotic {
				h.failf("orch", "migration %s failed without chaos: %s", m.Name, m.Err)
			}
			continue
		}
		stats.Migrated++
		if m.From == m.To {
			h.failf("orch", "migration %s: from == to == %d", m.Name, m.From)
		}
		// A successful live migration always has a positive virtual-time
		// blackout: the target's first dispatch strictly follows the
		// source's last.
		if m.Blackout == 0 {
			h.failf("orch", "migration %s: zero blackout", m.Name)
		}
		stats.BlackoutMax = max(stats.BlackoutMax, m.Blackout)
	}
	switch {
	case st.Upgrade == nil:
		h.failf("orch", "rolling upgrade never started")
	case st.Upgrade.DoneAt == 0:
		h.failf("orch", "rolling upgrade did not finish by the horizon")
	default:
		stats.Makespan = st.Upgrade.Makespan
		stats.Skipped = st.Upgrade.Skipped
		// Upgrade.Migrated counts issued migrations; the records split
		// them into completed and failed-over.
		if st.Upgrade.Migrated != stats.Migrated+stats.MigFailed {
			h.failf("orch", "upgrade issued %d migrations, records show %d ok + %d failed",
				st.Upgrade.Migrated, stats.Migrated, stats.MigFailed)
		}
		if !o.Chaotic && stats.Migrated == 0 {
			h.failf("orch", "clean upgrade migrated nothing (%d skipped)", stats.Skipped)
		}
	}

	res.Orch = stats
	return h.result(res)
}

// splitOracle maps a ckctl.Verify violation ("conservation: ...",
// "coherence: ...") onto the harness's oracle/detail split.
func splitOracle(s string) (oracle, detail string) {
	if i := strings.Index(s, ": "); i > 0 && !strings.Contains(s[:i], " ") {
		return s[:i], s[i+2:]
	}
	return "verify", s
}
