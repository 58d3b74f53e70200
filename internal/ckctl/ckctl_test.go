package ckctl

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vpp/internal/chaos"
	"vpp/internal/hw"
)

// buildCluster boots a machine with the plane over it. Callers arm
// chaos/upgrades and then runCluster.
func buildCluster(t *testing.T, mpms int, spec Spec, horizonUS float64) *Cluster {
	t.Helper()
	mcfg := hw.DefaultConfig()
	mcfg.MPMs = mpms
	mcfg.CPUsPerMPM = 2
	mcfg.PhysMemBytes = 256 << 20
	m := hw.NewMachine(mcfg)
	c, err := New(m, Config{Horizon: hw.CyclesFromMicros(horizonUS)}, spec)
	if err != nil {
		t.Fatalf("ckctl.New: %v", err)
	}
	return c
}

func runCluster(t *testing.T, c *Cluster) {
	t.Helper()
	c.M.SetMaxSteps(2_000_000_000)
	if err := c.M.Run(math.MaxUint64); err != nil {
		t.Fatalf("machine run: %v", err)
	}
	for _, p := range c.Verify() {
		t.Errorf("verify: %s", p)
	}
}

func TestLaunchAndComplete(t *testing.T) {
	spec := Spec{Kernels: []KernelSpec{
		{Name: "web", Count: 4, MPM: -1, Restart: RestartOnFailure, Beats: 40, BeatUS: 100},
		{Name: "batch", Count: 2, MPM: 1, Restart: RestartNever, Beats: 20, BeatUS: 100},
	}}
	c := buildCluster(t, 2, spec, 30_000)
	runCluster(t, c)
	st := c.Status()
	if len(st.Instances) != 6 {
		t.Fatalf("expected 6 instances, got %d", len(st.Instances))
	}
	for _, in := range st.Instances {
		if in.Phase != "completed" {
			t.Errorf("%s: phase %s, want completed (beats %d)", in.Name, in.Phase, in.Beats)
		}
		if in.Beats == 0 {
			t.Errorf("%s: no beats", in.Name)
		}
	}
	// The pinned group must land on module 1.
	for _, in := range st.Instances {
		if strings.HasPrefix(in.Name, "batch") && in.Node != 1 {
			t.Errorf("%s: pinned to MPM 1, placed on %d", in.Name, in.Node)
		}
	}
	// Auto-placement must use both modules.
	seen := map[int]bool{}
	for _, in := range st.Instances {
		if strings.HasPrefix(in.Name, "web") {
			seen[in.Node] = true
		}
	}
	if len(seen) < 2 {
		t.Errorf("auto placement used only modules %v", seen)
	}
}

func TestLiveMigration(t *testing.T) {
	spec := Spec{Kernels: []KernelSpec{
		{Name: "pod", Count: 4, MPM: -1, Restart: RestartOnFailure, BeatUS: 100},
	}}
	c := buildCluster(t, 2, spec, 40_000)
	c.ScheduleRollingUpgrade(hw.CyclesFromMicros(8_000))
	runCluster(t, c)
	st := c.Status()
	if st.Upgrade == nil || st.Upgrade.DoneAt == 0 {
		t.Fatalf("rolling upgrade did not finish: %+v", st.Upgrade)
	}
	if st.Upgrade.Migrated == 0 {
		t.Fatalf("no migrations performed")
	}
	for _, m := range st.Migrations {
		if m.Failed {
			t.Errorf("migration %s failed: %s", m.Name, m.Err)
			continue
		}
		if m.From == m.To {
			t.Errorf("migration %s: from == to == %d", m.Name, m.From)
		}
		if m.FirstResume <= m.SrcLastDispatch {
			t.Errorf("migration %s: resume %d not after last source dispatch %d", m.Name, m.FirstResume, m.SrcLastDispatch)
		}
		if m.Blackout == 0 {
			t.Errorf("migration %s: zero blackout", m.Name)
		}
	}
	// Migrated pods kept beating on the new module (beat counts survive
	// the move and keep growing).
	for _, in := range st.Instances {
		if in.Phase != "completed" && in.Phase != "running" {
			t.Errorf("%s: phase %s after upgrade", in.Name, in.Phase)
		}
		if in.Beats < 50 {
			t.Errorf("%s: only %d beats — did it stall after migration?", in.Name, in.Beats)
		}
	}
}

func TestKillRunningRestartPolicy(t *testing.T) {
	spec := Spec{Kernels: []KernelSpec{
		// Pods that would complete well before the horizon if undisturbed.
		{Name: "churn", Count: 2, MPM: 0, Restart: RestartOnFailure, Beats: 100, BeatUS: 100},
		{Name: "frail", Count: 1, MPM: 0, Restart: RestartNever, Beats: 100, BeatUS: 100},
	}}
	c := buildCluster(t, 1, spec, 60_000)
	// Kill whatever runs on both CPUs mid-run: some pod mains die; the
	// on-failure pods must be restarted and still finish, the no-restart
	// pod stays down if it was hit.
	inj := chaos.New(chaos.Plan{Seed: 7, Faults: []chaos.Fault{
		{Kind: chaos.KillRunning, At: hw.CyclesFromMicros(5_000), MPM: 0, CPU: 0},
		{Kind: chaos.KillRunning, At: hw.CyclesFromMicros(5_000), MPM: 0, CPU: 1},
		{Kind: chaos.KillRunning, At: hw.CyclesFromMicros(9_000), MPM: 0, CPU: 0},
	}})
	inj.Arm(c.M, c.Kernels()...)
	runCluster(t, c)
	if inj.Stats.ExecsKilled == 0 {
		t.Fatalf("chaos killed nothing; test exercises no restart path")
	}
	st := c.Status()
	restarted := 0
	for _, in := range st.Instances {
		switch {
		case strings.HasPrefix(in.Name, "churn"):
			if in.Phase != "completed" {
				t.Errorf("%s: phase %s, want completed despite kills", in.Name, in.Phase)
			}
			restarted += in.Restarts
		case strings.HasPrefix(in.Name, "frail"):
			if in.Phase != "completed" && in.Phase != "failed" {
				t.Errorf("%s: phase %s, want completed or failed", in.Name, in.Phase)
			}
			if in.Phase == "failed" && in.Restarts != 0 {
				t.Errorf("%s: restart policy no, but %d restarts", in.Name, in.Restarts)
			}
		}
	}
	if restarted == 0 {
		t.Errorf("no on-failure restarts recorded; kills hit nothing restartable")
	}
}

func TestCrashDuringMigration(t *testing.T) {
	spec := Spec{Kernels: []KernelSpec{
		{Name: "pod", Count: 6, MPM: -1, Restart: RestartOnFailure, BeatUS: 100},
	}}
	// Preemption latency under CPU saturation is bounded by the engine's
	// yield granularity (a compute-bound pod only polls interrupts when
	// its granted horizon expires), so each serial migration takes
	// 300-500k cycles; six migrations plus a crash recovery need a
	// generous horizon to converge.
	c := buildCluster(t, 2, spec, 160_000)
	upgradeAt := hw.CyclesFromMicros(8_000)
	c.ScheduleRollingUpgrade(upgradeAt)
	// Crash the source module's Cache Kernel while the upgrade is
	// migrating pods off it; the guardian must recover the module and
	// the controller must converge every pod back to running.
	inj := chaos.New(chaos.Plan{Seed: 11, Faults: []chaos.Fault{
		{Kind: chaos.CrashKernel, At: upgradeAt + hw.CyclesFromMicros(300), MPM: 0},
	}})
	inj.Arm(c.M, c.Kernels()...)
	runCluster(t, c)
	if inj.Stats.Crashes != 1 {
		t.Fatalf("expected 1 crash, got %d", inj.Stats.Crashes)
	}
	st := c.Status()
	recovered := false
	for _, n := range st.Nodes {
		if n.Recoveries > 0 {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("no guardian recovery observed after crash")
	}
	for _, in := range st.Instances {
		if in.Phase != "running" && in.Phase != "completed" {
			t.Errorf("%s: phase %s after crash+upgrade, want running/completed", in.Name, in.Phase)
		}
	}
}

// TestDeterminism reruns the migration scenario and requires the status
// JSON — timings, blackouts, placements, beat counts — to be
// byte-identical.
func TestDeterminism(t *testing.T) {
	run := func() string {
		spec := Spec{Kernels: []KernelSpec{
			{Name: "pod", Count: 6, MPM: -1, Restart: RestartOnFailure, BeatUS: 100},
		}}
		c := buildCluster(t, 2, spec, 40_000)
		c.ScheduleRollingUpgrade(hw.CyclesFromMicros(8_000))
		runCluster(t, c)
		b, err := json.MarshalIndent(c.Status(), "", " ")
		if err != nil {
			t.Fatalf("marshal status: %v", err)
		}
		return string(b)
	}
	if first, second := run(), run(); first != second {
		t.Fatalf("rerun diverged:\n%s\n---\n%s", first, second)
	}
}

// TestNewRejectsDuplicateInstances: two specs sharing a Name declare
// the same instance names, and New refuses them rather than running
// fewer pods than the spec declares.
func TestNewRejectsDuplicateInstances(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	defer m.Close()
	cfg := Config{Horizon: hw.CyclesFromMicros(1_000)}
	spec := Spec{Kernels: []KernelSpec{
		{Name: "a", Count: 2, MPM: -1},
		{Name: "b", Count: 1, MPM: -1},
		{Name: "a", Count: 3, MPM: -1},
	}}
	_, err := New(m, cfg, spec)
	if err == nil {
		t.Fatal("New accepted two specs declaring instances a-0 and a-1")
	}
	if !strings.Contains(err.Error(), `"a-0"`) {
		t.Errorf("error %q does not name the duplicate instance", err)
	}
}

// TestNewLeavesSpecUntouched: New fills defaults into its own copy of
// the kernel specs, never into the caller's.
func TestNewLeavesSpecUntouched(t *testing.T) {
	kernels := []KernelSpec{{Name: "web", MPM: -1}}
	want := kernels[0]
	c := buildCluster(t, 1, Spec{Kernels: kernels}, 1_000)
	defer c.M.Close()
	if kernels[0] != want {
		t.Errorf("New rewrote the caller's spec: %+v, was %+v", kernels[0], want)
	}
	st := c.Status()
	if len(st.Instances) != 1 || st.Instances[0].Kind != "beat" {
		t.Errorf("defaults not applied to the cluster's own spec: %+v", st.Instances)
	}
}
