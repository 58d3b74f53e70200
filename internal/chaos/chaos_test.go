package chaos

import (
	"math"
	"testing"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/sim"
)

// TestEmptyPlanArmsNothing pins the byte-identity contract: arming an
// empty plan must install no hooks anywhere, so a run with an unarmed
// injector is indistinguishable from one without the package.
func TestEmptyPlanArmsNothing(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := New(Plan{})
	in.Arm(m, k)
	wire := dev.NewWire()
	n := dev.AttachNIC(m.MPMs[0], wire, dev.MAC{1})
	in.ArmNIC(n)
	pa, _ := dev.ConnectFiber(m.MPMs[0], m.MPMs[0], "t")
	in.ArmFiber(pa)
	if m.MPMs[0].WalkFault != nil {
		t.Error("empty plan installed a walk fault")
	}
	if k.SignalFault != nil || k.WritebackFault != nil {
		t.Error("empty plan installed kernel hooks")
	}
	if n.TxFault != nil || pa.TxFault != nil {
		t.Error("empty plan installed wire hooks")
	}
}

// TestFaultWindow checks the virtual-time arming window.
func TestFaultWindow(t *testing.T) {
	in := New(Plan{})
	rng := sim.NewRand(0)
	f := &Fault{Kind: DropFrame, At: 100, Until: 200}
	for _, c := range []struct {
		now  uint64
		want bool
	}{{99, false}, {100, true}, {199, true}, {200, false}} {
		if got := in.hit(f, c.now, rng); got != c.want {
			t.Errorf("hit at %d = %v, want %v", c.now, got, c.want)
		}
	}
	open := &Fault{Kind: DropFrame, At: 50}
	if !in.hit(open, math.MaxUint64, rng) {
		t.Error("open-ended window closed")
	}
}

type lossyOutcome struct {
	rx, dropped, duped uint64
	stats              Stats
	finalClock         uint64
}

// runLossyTraffic sends 200 frames across a wire under a probabilistic
// drop/duplicate plan and reports everything observable about the run.
func runLossyTraffic(t *testing.T, seed uint64) lossyOutcome {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	wire := dev.NewWire()
	a := dev.AttachNIC(m.MPMs[0], wire, dev.MAC{0xa})
	b := dev.AttachNIC(m.MPMs[0], wire, dev.MAC{0xb})
	b.RxQueueLimit = 1 << 20
	in := New(Plan{Seed: seed, Faults: []Fault{
		{Kind: DropFrame, Prob: 0.3},
		{Kind: DupFrame, Prob: 0.1},
	}})
	in.ArmNIC(a)
	m.MPMs[0].NewDeviceExec("sender", func(e *hw.Exec) {
		frame := make([]byte, dev.EtherMinFrame)
		frame[0] = 0xb
		for i := 0; i < 200; i++ {
			frame[12] = byte(i)
			if err := a.Transmit(e, frame); err != nil {
				t.Error(err)
				return
			}
			e.Charge(2000)
		}
	})
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	return lossyOutcome{
		rx: b.RxFrames, dropped: a.WireDropped, duped: a.WireDuped,
		stats: in.Stats, finalClock: m.Now(),
	}
}

// TestFrameLossDeterministicAcrossSeeds runs the lossy-wire workload
// twice per seed across eight fixed seeds: same seed must reproduce the
// identical loss pattern, and the seeds must not all collapse to one
// outcome.
func TestFrameLossDeterministicAcrossSeeds(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34}
	outcomes := make(map[lossyOutcome]bool)
	for _, seed := range seeds {
		r1 := runLossyTraffic(t, seed)
		r2 := runLossyTraffic(t, seed)
		if r1 != r2 {
			t.Fatalf("seed %d diverged:\n%+v\nvs\n%+v", seed, r1, r2)
		}
		if r1.dropped == 0 || r1.rx == 0 {
			t.Fatalf("seed %d: degenerate outcome %+v", seed, r1)
		}
		if r1.dropped != r1.stats.FramesDropped || r1.duped != r1.stats.FramesDuplicated {
			t.Fatalf("seed %d: NIC counters disagree with injector stats: %+v", seed, r1)
		}
		outcomes[r1] = true
	}
	if len(outcomes) < 2 {
		t.Fatalf("all %d seeds produced the identical loss pattern", len(seeds))
	}
}

// TestScriptedCrash schedules a Cache Kernel crash at a fixed virtual
// time and checks the crash semantics: the epoch advances, every
// pre-crash identifier stops validating, and the instance is bootable
// again.
func TestScriptedCrash(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	in := New(Plan{Faults: []Fault{
		{Kind: CrashKernel, At: hw.CyclesFromMicros(5_000), MPM: 0},
	}})
	in.Arm(m, k)
	progress := 0
	info, err := k.Boot(ck.KernelAttrs{Name: "victim"}, 40, func(e *hw.Exec) {
		for i := 0; i < 1000; i++ {
			e.Charge(1000) // 40 µs per step: the crash interrupts this
			progress++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if in.Stats.Crashes != 1 || k.Stats.Crashes != 1 {
		t.Fatalf("crash counts: injector %d, kernel %d", in.Stats.Crashes, k.Stats.Crashes)
	}
	if k.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", k.Epoch)
	}
	if progress >= 1000 {
		t.Fatal("boot thread ran to completion despite the crash")
	}
	for _, id := range []ck.ObjID{info.Kernel, info.Space, info.Thread} {
		if k.Loaded(id) {
			t.Errorf("pre-crash identifier %v still validates", id)
		}
	}
	if _, err := k.Boot(ck.KernelAttrs{Name: "reborn"}, 40, func(e *hw.Exec) {}); err != nil {
		t.Fatalf("re-boot after crash: %v", err)
	}
}
