package ckctl

import (
	"testing"

	"vpp/internal/chaos"
	"vpp/internal/ck"
	"vpp/internal/hw"
)

// TestEventLogCutInvariant: each Cache Kernel's event stream — its
// dispatches and alarm signals, the injected crash, and the SRM's
// recovery and migration events — is the same record for record
// whether the machine runs straight through or stops just before the
// upgrade and just before the crash and resumes.
func TestEventLogCutInvariant(t *testing.T) {
	upgradeAt := hw.CyclesFromMicros(8_000)
	crashAt := upgradeAt + hw.CyclesFromMicros(300)
	run := func(cuts ...uint64) [][]ck.Event {
		spec := Spec{Kernels: []KernelSpec{
			{Name: "pod", Count: 6, MPM: -1, Restart: RestartOnFailure, BeatUS: 100},
		}}
		c := buildCluster(t, 2, spec, 160_000)
		defer c.M.Close()
		logs := make([][]ck.Event, len(c.Nodes))
		for i, n := range c.Nodes {
			i := i
			n.CK.Observe(func(ev ck.Event) { logs[i] = append(logs[i], ev) })
		}
		c.ScheduleRollingUpgrade(upgradeAt)
		inj := chaos.New(chaos.Plan{Seed: 11, Faults: []chaos.Fault{
			{Kind: chaos.CrashKernel, At: crashAt, MPM: 0},
		}})
		inj.Arm(c.M, c.Kernels()...)
		for _, cut := range cuts {
			if err := c.M.Run(cut); err != nil {
				t.Fatalf("run to %d: %v", cut, err)
			}
		}
		runCluster(t, c)
		return logs
	}
	straight, cut := run(), run(upgradeAt-1, crashAt-1)
	seen := map[ck.EventKind]bool{}
	for i := range straight {
		for j := 0; j < len(straight[i]) || j < len(cut[i]); j++ {
			if j >= len(straight[i]) || j >= len(cut[i]) {
				t.Fatalf("mpm %d: %d events straight, %d cut", i, len(straight[i]), len(cut[i]))
			}
			if straight[i][j] != cut[i][j] {
				t.Fatalf("mpm %d event %d: straight %+v, cut %+v", i, j, straight[i][j], cut[i][j])
			}
			seen[straight[i][j].Kind] = true
		}
	}
	for _, k := range []ck.EventKind{ck.EvDispatch, ck.EvSignalDeliver, ck.EvCrash, ck.EvRecoverResume, ck.EvMigrateExpel, ck.EvMigrateAdopt} {
		if !seen[k] {
			t.Errorf("no %v event in the logs (saw %v)", k, seen)
		}
	}
}
