package ckctl

import (
	"math"
	"testing"

	"vpp/internal/chaos"
	"vpp/internal/ck"
	"vpp/internal/hw"
)

// orchCase is one orchestration-family scenario, with the parameters
// simtest.GenerateOrch draws for an orch seed and the cluster its
// runOrch builds from them (ckctl cannot import simtest, which imports
// it).
type orchCase struct {
	seed                 uint64
	mpms, pods, beatUS   int
	upgradeUS, horizonUS int
	faultSeed            uint64
	faults               []chaos.Fault
}

// orchCases spans the family's chaos variants: kills of whatever runs,
// a crash of module 0 while the rolling upgrade drains it, page-table
// walk errors and a clean upgrade.
var orchCases = []orchCase{
	{seed: 0, mpms: 3, pods: 50, beatUS: 179, upgradeUS: 18444, horizonUS: 2835110, faultSeed: 0x1b39896a51a8749b,
		faults: []chaos.Fault{
			{Kind: chaos.KillRunning, At: 9134600, MPM: 2, CPU: 0},
			{Kind: chaos.KillRunning, At: 11466125, MPM: 1, CPU: 1},
			{Kind: chaos.KillRunning, At: 11671875, MPM: 2, CPU: 1},
			{Kind: chaos.KillRunning, At: 1559225, MPM: 2, CPU: 0},
		}},
	{seed: 4, mpms: 3, pods: 54, beatUS: 247, upgradeUS: 11582, horizonUS: 3165582, faultSeed: 0x65033a18a378cab9,
		faults: []chaos.Fault{{Kind: chaos.CrashKernel, At: 367400, MPM: 0}}},
	{seed: 7, mpms: 2, pods: 54, beatUS: 196, upgradeUS: 12203, horizonUS: 4138203, faultSeed: 0x73d33b666a1e21da,
		faults: []chaos.Fault{{Kind: chaos.CrashKernel, At: 357525, MPM: 0}}},
	{seed: 2, mpms: 3, pods: 51, beatUS: 151, upgradeUS: 15236, horizonUS: 2914236, faultSeed: 0x4fc446b53f17fb29,
		faults: []chaos.Fault{{Kind: chaos.WalkError, Prob: 0.0019527072290334954}}},
	{seed: 12, mpms: 2, pods: 57, beatUS: 198, upgradeUS: 9737, horizonUS: 4513737, faultSeed: 0xda2787e7f2b8ff6e},
}

// TestStoredPodRecords: every hosted pod's stored SRM record, from
// which the agent reports the pod's state, is what SRM.Kernel returns
// for it, at every event of every module, through launches, restarts,
// migrations, kills and a module crash mid-drain. The one exception is
// the expel event: Expel emits it after it dropped the SRM's record
// and before it returns to migrateOut, which clears the stored one
// with no charge in between, so no report can see that instant.
func TestStoredPodRecords(t *testing.T) {
	cases := orchCases
	if testing.Short() {
		cases = cases[:2]
	}
	for _, oc := range cases {
		mcfg := hw.DefaultConfig()
		mcfg.MPMs = oc.mpms
		mcfg.CPUsPerMPM = 2
		mcfg.PhysMemBytes = 256 << 20
		m := hw.NewMachine(mcfg)
		batch := oc.pods / 5
		spec := Spec{Kernels: []KernelSpec{
			{Name: "fleet", Count: oc.pods - batch, MPM: -1, Restart: RestartOnFailure, BeatUS: float64(oc.beatUS)},
			{Name: "batch", Count: batch, MPM: -1, Restart: RestartNever, Beats: 200, BeatUS: float64(oc.beatUS)},
		}}
		c, err := New(m, Config{Horizon: hw.CyclesFromMicros(float64(oc.horizonUS)), CK: ck.Config{
			KernelSlots: oc.pods + 8, SpaceSlots: oc.pods + 16, ThreadSlots: 256, MappingSlots: 4096,
		}}, spec)
		if err != nil {
			t.Fatalf("seed %d: %v", oc.seed, err)
		}
		checks := 0
		var stale string
		for _, n := range c.Nodes {
			n := n
			n.CK.Observe(func(ev ck.Event) {
				if stale != "" || n.SRM == nil || ev.Kind == ck.EvMigrateExpel {
					return
				}
				checks++
				if name := n.staleRecord(); name != "" {
					stale = name
					t.Errorf("seed %d: module %d at cycle %d: pod %s's stored record is not SRM.Kernel's",
						oc.seed, n.Idx, m.Now(), name)
				}
			})
		}
		chaos.New(chaos.Plan{Seed: oc.faultSeed, Faults: oc.faults}).Arm(m, c.Kernels()...)
		c.ScheduleRollingUpgrade(hw.CyclesFromMicros(float64(oc.upgradeUS)))
		m.SetMaxSteps(2_000_000_000)
		if err := m.Run(math.MaxUint64); err != nil {
			t.Fatalf("seed %d: machine run: %v", oc.seed, err)
		}
		for _, p := range c.Verify() {
			t.Errorf("seed %d: verify: %s", oc.seed, p)
		}
		if st := c.Status(); st.Upgrade == nil || st.Upgrade.Migrated == 0 || checks == 0 {
			t.Errorf("seed %d: no migration or no check (%d checks)", oc.seed, checks)
		}
		m.Close()
	}
}
