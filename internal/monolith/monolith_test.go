package monolith

import (
	"math"
	"testing"

	"vpp/internal/hw"
)

func bootMono(t *testing.T) (*hw.Machine, *Kernel) {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	return m, New(m.MPMs[0])
}

func run(t *testing.T, m *hw.Machine) {
	t.Helper()
	m.SetMaxSteps(20_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
}

func TestGetpidDirectDispatch(t *testing.T) {
	m, k := bootMono(t)
	var pid uint32
	var dur float64
	p, err := k.Spawn("u", 10, 0x1000_0000, 16, func(e *hw.Exec) {
		e.Trap(SysGetpid) // warm
		t0 := e.Now()
		pid, _ = e.Trap(SysGetpid)
		dur = hw.MicrosFromCycles(e.Now() - t0)
	})
	if err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if int(pid) != p.PID {
		t.Fatalf("pid = %d, want %d", pid, p.PID)
	}
	// Paper: Mach 2.5 getpid is about 25 µs on comparable hardware.
	if dur < 20 || dur > 30 {
		t.Fatalf("monolithic getpid = %.1f µs, want ~25", dur)
	}
}

func TestInKernelDemandPaging(t *testing.T) {
	m, k := bootMono(t)
	var got uint32
	_, err := k.Spawn("u", 10, 0x1000_0000, 16, func(e *hw.Exec) {
		e.Store32(0x1000_0000, 31337)
		got = e.Load32(0x1000_0000)
	})
	if err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if got != 31337 {
		t.Fatalf("got %d", got)
	}
	if k.Faults != 1 {
		t.Fatalf("faults = %d", k.Faults)
	}
}

func TestWildAccessKillsProcess(t *testing.T) {
	m, k := bootMono(t)
	p, _ := k.Spawn("bad", 10, 0x1000_0000, 16, func(e *hw.Exec) {
		e.Load32(0x7000_0000)
		t.Error("survived wild access")
	})
	run(t, m)
	if !k.Zombie(p.PID) {
		t.Fatal("process not killed")
	}
}

func TestHardProcessTableLimit(t *testing.T) {
	m, k := bootMono(t)
	for i := 0; i < NPROC; i++ {
		if _, err := k.Spawn("p", 10, 0x1000_0000, 4, func(e *hw.Exec) {
			e.Trap(SysExit, 0)
		}); err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
	}
	// The classic hard error: table full even though zombies exist.
	if _, err := k.Spawn("extra", 10, 0x1000_0000, 4, func(e *hw.Exec) {}); err != ErrProcTableFull {
		t.Fatalf("err = %v, want ErrProcTableFull", err)
	}
	run(t, m)
	// After reaping one slot, spawning works again.
	var reaped bool
	for pid := 1; pid <= NPROC; pid++ {
		if k.Reap(pid) {
			reaped = true
			break
		}
	}
	if !reaped {
		t.Fatal("nothing to reap")
	}
	done := false
	if _, err := k.Spawn("late", 10, 0x1000_0000, 4, func(e *hw.Exec) { done = true }); err != nil {
		t.Fatalf("spawn after reap: %v", err)
	}
	run(t, m)
	if !done {
		t.Fatal("late process never ran")
	}
}

func TestTimeSliceRotation(t *testing.T) {
	cfg := hw.DefaultConfig()
	cfg.CPUsPerMPM = 1
	m := hw.NewMachine(cfg)
	k := New(m.MPMs[0])
	counts := [2]int{}
	mk := func(i int) func(e *hw.Exec) {
		return func(e *hw.Exec) {
			for j := 0; j < 30; j++ {
				e.Charge(2000)
				counts[i]++
				e.CPU.ArmTimerAt(e.Now() + 4000)
			}
		}
	}
	if _, err := k.Spawn("a", 10, 0x1000_0000, 4, mk(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Spawn("b", 10, 0x1000_0000, 4, mk(1)); err != nil {
		t.Fatal(err)
	}
	run(t, m)
	if counts[0] != 30 || counts[1] != 30 {
		t.Fatalf("counts = %v", counts)
	}
	if k.Switches < 4 {
		t.Fatalf("switches = %d", k.Switches)
	}
}
