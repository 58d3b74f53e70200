package srm

import (
	"math"
	"strings"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
)

// TestObserversSideBySideAcrossCrash: a narration printer and a
// ckctl-style dispatch tracker observe one Cache Kernel through a crash
// and its recovery, beside the guardian's own first-resume observer.
// Recovery stamps FirstResume exactly once, and both observers keep
// receiving events through and after the reboot without being
// registered again.
func TestObserversSideBySideAcrossCrash(t *testing.T) {
	crashAt := hw.CyclesFromMicros(8_000)
	m := hw.NewMachine(hw.DefaultConfig())
	defer m.Close()
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var narration []string
	k.Observe(func(ev ck.Event) {
		if ev.Kind != ck.EvDispatch {
			narration = append(narration, ev.Kind.String()+": "+ev.Detail())
		}
	})
	var dispatches []ck.Event
	k.Observe(func(ev ck.Event) {
		if ev.Kind == ck.EvDispatch {
			dispatches = append(dispatches, ev)
		}
	})
	m.MPMs[0].Shard.ScheduleAt(crashAt, k.Crash)

	var reports []*RecoveryReport
	steps := 0
	_, err = Start(k, m.MPMs[0], func(s *SRM, e *hw.Exec) {
		_, err := s.Launch(e, "app", LaunchOpts{Groups: 4, MainPrio: 30}, func(ak *aklib.AppKernel, ae *hw.Exec) {
			for steps < 20 {
				ae.Charge(hw.CyclesFromMicros(1000))
				steps++
			}
			// A thread started after the recovery completed is
			// dispatched with no observer registered again.
			w := ak.NewThread("worker", ak.SpaceID, 30, func(we *hw.Exec) { we.Charge(1000) })
			if err := w.Load(ae, false); err != nil {
				t.Errorf("load worker: %v", err)
			}
		})
		if err != nil {
			t.Errorf("launch: %v", err)
		}
		s.Guard(GuardConfig{
			Interval:    hw.CyclesFromMicros(250),
			Until:       hw.CyclesFromMicros(60_000),
			OnRecovered: func(r *RecoveryReport) { reports = append(reports, r) },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(100_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}

	if len(reports) != 1 || reports[0].Err != nil {
		t.Fatalf("recoveries %d, want one clean one", len(reports))
	}
	r := reports[0]
	if r.FirstResume <= r.RebootAt {
		t.Fatalf("FirstResume %d not after the reboot at %d", r.FirstResume, r.RebootAt)
	}
	if steps != 20 {
		t.Fatalf("app ran %d of 20 steps", steps)
	}
	resumes := 0
	for _, line := range narration {
		if strings.HasPrefix(line, "recover-resume: ") {
			resumes++
		}
	}
	if resumes != 1 {
		t.Fatalf("narrated %d first resumes, want 1:\n%s", resumes, strings.Join(narration, "\n"))
	}
	want := []string{
		"crash: epoch 1",
		"recover-detect: stale kernel id kernel#0.g1; instance is at epoch 1",
		"recover-reboot: CPUs drained; re-booting SRM as first kernel",
		`recover-resume: first application dispatch: "app/main"`,
	}
	next := 0
	for _, line := range narration {
		if next < len(want) && line == want[next] {
			next++
		}
	}
	if next < len(want) {
		t.Fatalf("narration lacks %q in order:\n%s", want[next], strings.Join(narration, "\n"))
	}
	// The tracker saw the reboot's SRM dispatches inside the recovery
	// window, the very dispatch the guardian stamped, and the worker's.
	var inWindow, stamped, later bool
	for _, ev := range dispatches {
		switch {
		case ev.At >= r.RebootAt && ev.At < r.FirstResume && strings.HasPrefix(ev.Name, "srm/"):
			inWindow = true
		case ev.At == r.FirstResume && ev.Name == "app/main":
			stamped = true
		case ev.At > r.FirstResume && ev.Name == "app/worker":
			later = true
		}
	}
	if !inWindow || !stamped || !later {
		t.Fatalf("tracker saw SRM dispatches in the recovery window %v, the stamped resume %v, later dispatches %v",
			inWindow, stamped, later)
	}
}
