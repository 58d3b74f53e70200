package unixemu

import (
	"math"
	"strings"
	"testing"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/srm"
)

// startUnix boots a machine, an SRM, and a UNIX emulator kernel, runs
// body in the emulator's main thread (scheduler already started), stops
// the scheduler afterwards, and drives the machine to quiescence.
func startUnix(t *testing.T, cfg Config, body func(u *Unix, e *hw.Exec)) *Unix {
	t.Helper()
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var u *Unix
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, err := s.Launch(e, "unix", srm.LaunchOpts{Groups: 16, MainPrio: 31, MaxPrio: 40},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				u = New(ak, cfg)
				if err := u.StartScheduler(me); err != nil {
					t.Errorf("scheduler: %v", err)
					return
				}
				body(u, me)
				u.StopScheduler()
			})
		if err != nil {
			t.Errorf("launch unix: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMaxSteps(200_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if u == nil {
		t.Fatal("emulator never constructed")
	}
	return u
}

// waitZombieOrGone spins in virtual time until pid has exited.
func waitProcDone(u *Unix, e *hw.Exec, pid int) {
	for {
		p := u.Proc(pid)
		if p == nil || p.state == procZombie {
			return
		}
		e.Charge(20_000)
	}
}

func TestSpawnGetpidConsoleExit(t *testing.T) {
	u := startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("hello", func(env *ProcEnv) {
			pid := env.Getpid()
			if pid <= 0 {
				t.Errorf("getpid = %d", pid)
			}
			env.WriteString(1, "hello from user\n")
			env.Exit(3)
		})
		p, err := u.Spawn(e, "hello", nil)
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		waitProcDone(u, e, p.PID())
		if p.ExitCode() != 3 {
			t.Errorf("exit code = %d, want 3", p.ExitCode())
		}
	})
	if !strings.Contains(string(u.Console), "hello from user") {
		t.Fatalf("console = %q", u.Console)
	}
}

func TestInitSpawnsChildAndWaits(t *testing.T) {
	var waitedPid int
	var waitedCode uint32
	startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("child", func(env *ProcEnv) {
			env.Exit(7)
		})
		u.RegisterProgram("init", func(env *ProcEnv) {
			pid, _ := env.Spawn("child")
			if pid <= 0 {
				t.Error("spawn from user failed")
				return
			}
			wpid, code, ok := env.Wait()
			if !ok {
				t.Error("wait failed")
				return
			}
			waitedPid, waitedCode = wpid, code
		})
		p, err := u.Spawn(e, "init", nil)
		if err != nil {
			t.Fatalf("spawn init: %v", err)
		}
		waitProcDone(u, e, p.PID())
	})
	if waitedCode != 7 || waitedPid <= 0 {
		t.Fatalf("wait -> pid=%d code=%d", waitedPid, waitedCode)
	}
}

func TestHeapSbrkAndMemory(t *testing.T) {
	startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("heap", func(env *ProcEnv) {
			brk := env.Sbrk(3 * hw.PageSize)
			if brk != DataBase {
				t.Errorf("initial brk = %#x", brk)
			}
			for i := uint32(0); i < 3*hw.PageSize; i += hw.PageSize {
				env.Store32(DataBase+i, i^0x5a5a)
			}
			for i := uint32(0); i < 3*hw.PageSize; i += hw.PageSize {
				if v := env.Load32(DataBase + i); v != i^0x5a5a {
					t.Errorf("heap[%#x] = %#x", i, v)
				}
			}
		})
		p, _ := u.Spawn(e, "heap", nil)
		waitProcDone(u, e, p.PID())
	})
}

func TestFileWriteReadBack(t *testing.T) {
	u := startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("files", func(env *ProcEnv) {
			fd, errn := env.Open("/tmp/data", true)
			if fd < 0 {
				t.Errorf("creat: errno %d", errn)
				return
			}
			msg := "persistent bytes"
			va := env.HeapBase()
			env.Sbrk(hw.PageSize)
			for i := 0; i < len(msg); i++ {
				env.Exec().Store8(va+uint32(i), msg[i])
			}
			if n, _ := env.Write(fd, va, uint32(len(msg))); n != len(msg) {
				t.Errorf("write = %d", n)
			}
			env.Close(fd)

			fd2, _ := env.Open("/tmp/data", false)
			dst := va + hw.PageSize/2
			n, _ := env.Read(fd2, dst, uint32(len(msg)))
			if n != len(msg) {
				t.Errorf("read = %d", n)
			}
			for i := 0; i < n; i++ {
				if env.Exec().Load8(dst+uint32(i)) != msg[i] {
					t.Errorf("byte %d mismatch", i)
				}
			}
		})
		p, _ := u.Spawn(e, "files", nil)
		waitProcDone(u, e, p.PID())
	})
	f, ok := u.FS.Open("/tmp/data")
	if !ok || string(f.Data) != "persistent bytes" {
		t.Fatalf("file content = %q", f)
	}
}

func TestSleepWakeupReloadsThread(t *testing.T) {
	resumed := false
	u := startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("sleeper", func(env *ProcEnv) {
			env.Sleep(50)
			resumed = true
		})
		p, _ := u.Spawn(e, "sleeper", nil)
		waitProcDone(u, e, p.PID())
	})
	if !resumed {
		t.Fatal("sleeper did not resume")
	}
	if u.Wakeups == 0 {
		t.Fatal("no wakeups recorded")
	}
	// Sleeping unloads the thread; waking reloads it: at least two
	// thread loads for the process (initial + reload).
	if u.K.Stats.ThreadLoads < 3 { // sched + proc + reload
		t.Fatalf("thread loads = %d", u.K.Stats.ThreadLoads)
	}
}

func TestLongSleepSwapsProcessOut(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SwapAfter = 2
	u := startUnix(t, cfg, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("idler", func(env *ProcEnv) {
			env.Store32(DataBase, 1234) // sbrk-less heap touch (page 0 is mapped lazily)
			env.Sleep(200)
			if env.Load32(DataBase) != 1234 {
				t.Error("heap lost across swap")
			}
		})
		p, err := u.Spawn(e, "idler", nil)
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		waitProcDone(u, e, p.PID())
	})
	if u.SwapsOut == 0 || u.SwapsIn == 0 {
		t.Fatalf("swaps out/in = %d/%d", u.SwapsOut, u.SwapsIn)
	}
}

func TestSegvKillsProcess(t *testing.T) {
	u := startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("bad", func(env *ProcEnv) {
			env.Load32(0x0050_0000) // no segment there
			t.Error("survived wild access")
		})
		p, _ := u.Spawn(e, "bad", nil)
		waitProcDone(u, e, p.PID())
		if p.ExitCode() != 0xff {
			t.Errorf("exit code = %#x, want 0xff", p.ExitCode())
		}
	})
	if u.Segvs == 0 {
		t.Fatal("no SEGV recorded")
	}
}

func TestSegvHandlerRuns(t *testing.T) {
	var faultVA uint32
	startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("catcher", func(env *ProcEnv) {
			env.OnSegv(func(env *ProcEnv, va uint32) {
				faultVA = va
				env.Exit(9)
			})
			env.Load32(0x0060_0000)
		})
		p, _ := u.Spawn(e, "catcher", nil)
		waitProcDone(u, e, p.PID())
		if p.ExitCode() != 9 {
			t.Errorf("exit = %d, want 9 (handler exit)", p.ExitCode())
		}
	})
	if faultVA != 0x0060_0000 {
		t.Fatalf("handler saw va %#x", faultVA)
	}
}

func TestManyProcessesTimeshare(t *testing.T) {
	const n = 12
	counts := make([]int, n)
	startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("worker", func(env *ProcEnv) {
			me := env.Getpid()
			for i := 0; i < 40; i++ {
				env.Exec().Charge(5000)
				counts[(me-1)%n]++
			}
		})
		var pids []int
		for i := 0; i < n; i++ {
			p, err := u.Spawn(e, "worker", nil)
			if err != nil {
				t.Fatalf("spawn %d: %v", i, err)
			}
			pids = append(pids, p.PID())
		}
		for _, pid := range pids {
			waitProcDone(u, e, pid)
		}
	})
	for i, c := range counts {
		if c != 40 {
			t.Fatalf("worker %d ran %d iterations", i, c)
		}
	}
}

func TestComputeBoundPriorityDegrades(t *testing.T) {
	var sawPrio int
	startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("burner", func(env *ProcEnv) {
			for i := 0; i < 200; i++ {
				env.Exec().Charge(50_000)
			}
		})
		p, _ := u.Spawn(e, "burner", nil)
		start := p.dynPrio
		waitProcDone(u, e, p.PID())
		sawPrio = p.dynPrio
		if sawPrio >= start {
			t.Errorf("priority did not degrade: %d -> %d", start, sawPrio)
		}
	})
}

func TestKillOtherProcess(t *testing.T) {
	startUnix(t, Config{}, func(u *Unix, e *hw.Exec) {
		u.RegisterProgram("victim", func(env *ProcEnv) {
			for {
				env.Exec().Charge(10_000)
			}
		})
		u.RegisterProgram("killer", func(env *ProcEnv) {
			pid, _ := env.Spawn("victim")
			env.Sleep(30)
			if errn := env.Kill(pid); errn != 0 {
				t.Errorf("kill: errno %d", errn)
			}
		})
		p, _ := u.Spawn(e, "killer", nil)
		waitProcDone(u, e, p.PID())
		// The victim must be gone (zombie) too.
		for _, q := range u.sortedProcs() {
			if q.state != procZombie && q.PID() != p.PID() {
				// allow the killer itself
				if q.parent != nil {
					t.Errorf("pid %d still %s", q.PID(), q.stateName())
				}
			}
		}
	})
}
