package exp

import (
	"strings"
	"testing"
)

// TestRecoveryWorkload checks the semantic outcome of the scripted
// crash: every emulated process finishes, the latency milestones are
// ordered, and the breakdown is attributed correctly.
func TestRecoveryWorkload(t *testing.T) {
	res, err := RunRecoveryWorkload(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"hello from pid 2",
		"napper pid 3 rested",
		"crunch pid 4 done",
		"init: all children reaped",
	} {
		if !strings.Contains(res.Console, want) {
			t.Errorf("console missing %q:\n%s", want, res.Console)
		}
	}
	if res.DetectAt <= res.CrashAt {
		t.Errorf("detection at %d not after crash at %d", res.DetectAt, res.CrashAt)
	}
	if res.RebootAt < res.DetectAt || res.ReloadAt < res.RebootAt {
		t.Errorf("milestones out of order: detect %d reboot %d reload %d",
			res.DetectAt, res.RebootAt, res.ReloadAt)
	}
	if res.FirstResume <= res.RebootAt {
		t.Errorf("first resume %d not after reboot %d", res.FirstResume, res.RebootAt)
	}
	if res.KernelsReloaded != 1 {
		t.Errorf("kernels reloaded = %d, want 1", res.KernelsReloaded)
	}
	if res.CrashEpoch != 1 {
		t.Errorf("crash epoch = %d, want 1", res.CrashEpoch)
	}
	if res.ProcRestarts == 0 {
		t.Errorf("expected at least one process restart (crunch was on-CPU)")
	}
}
