package ckctl

import (
	"testing"

	"vpp/internal/chaos"
	"vpp/internal/ck"
	"vpp/internal/hw"
)

// TestEventLogShardInvariant: each Cache Kernel's event stream — its
// dispatches and alarm signals, the injected crash, and the SRM's
// recovery and migration events — is the same record for record
// whether the two modules share one engine shard or run on their own.
func TestEventLogShardInvariant(t *testing.T) {
	run := func(shards int) [][]ck.Event {
		spec := Spec{Kernels: []KernelSpec{
			{Name: "pod", Count: 6, MPM: -1, Restart: RestartOnFailure, BeatUS: 100},
		}}
		c := buildCluster(t, 2, shards, spec, 160_000)
		defer c.M.Close()
		logs := make([][]ck.Event, len(c.Nodes))
		for i, n := range c.Nodes {
			i := i
			n.CK.Observe(func(ev ck.Event) { logs[i] = append(logs[i], ev) })
		}
		upgradeAt := hw.CyclesFromMicros(8_000)
		c.ScheduleRollingUpgrade(upgradeAt)
		inj := chaos.New(chaos.Plan{Seed: 11, Faults: []chaos.Fault{
			{Kind: chaos.CrashKernel, At: upgradeAt + hw.CyclesFromMicros(300), MPM: 0},
		}})
		inj.Arm(c.M, c.Kernels()...)
		runCluster(t, c)
		return logs
	}
	serial, sharded := run(1), run(4)
	seen := map[ck.EventKind]bool{}
	for i := range serial {
		for j := 0; j < len(serial[i]) || j < len(sharded[i]); j++ {
			if j >= len(serial[i]) || j >= len(sharded[i]) {
				t.Fatalf("mpm %d: %d events serial, %d sharded", i, len(serial[i]), len(sharded[i]))
			}
			if serial[i][j] != sharded[i][j] {
				t.Fatalf("mpm %d event %d: serial %+v, sharded %+v", i, j, serial[i][j], sharded[i][j])
			}
			seen[serial[i][j].Kind] = true
		}
	}
	for _, k := range []ck.EventKind{ck.EvDispatch, ck.EvSignalDeliver, ck.EvCrash, ck.EvRecoverResume, ck.EvMigrateExpel, ck.EvMigrateAdopt} {
		if !seen[k] {
			t.Errorf("no %v event in the logs (saw %v)", k, seen)
		}
	}
}
