// UNIX timesharing on the Cache Kernel: the paper's running example.
//
// A UNIX emulator application kernel provides processes with stable
// pids, demand paging to a RAM disk, sleeping by thread unload/reload,
// swapping of idle processes, and a scheduler thread that degrades
// compute-bound processes — all built from Cache Kernel load/unload
// operations, with no kernel modification.
//
//	go run ./examples/unixproc
package main

import (
	"fmt"
	"log"
	"math"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/srm"
	"vpp/internal/unixemu"
)

func main() {
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		log.Fatal(err)
	}
	var u *unixemu.Unix
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, err := s.Launch(e, "unix", srm.LaunchOpts{Groups: 16, MainPrio: 31, MaxPrio: 34},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				cfg := unixemu.DefaultConfig()
				cfg.SwapAfter = 2
				u = unixemu.New(ak, cfg)
				if err := u.StartScheduler(me); err != nil {
					log.Fatal(err)
				}

				// A tiny shell script in three programs: init spawns a
				// writer and a reader connected through the RAM-disk file
				// system, plus an idler that sleeps long enough to be
				// swapped out.
				u.RegisterProgram("writer", func(env *unixemu.ProcEnv) {
					fd, _ := env.Open("/tmp/pipe", true)
					env.WriteString(1, fmt.Sprintf("writer: pid %d\n", env.Getpid()))
					va := env.HeapBase()
					env.Sbrk(hw.PageSize)
					msg := "data flowing through the RAM disk"
					for i := 0; i < len(msg); i++ {
						env.Exec().Store8(va+uint32(i), msg[i])
					}
					env.Write(fd, va, uint32(len(msg)))
					env.Close(fd)
				})
				u.RegisterProgram("reader", func(env *unixemu.ProcEnv) {
					fd, errn := env.Open("/tmp/pipe", false)
					if fd < 0 {
						env.WriteString(1, fmt.Sprintf("reader: open failed (%d)\n", errn))
						env.Exit(1)
					}
					va := env.HeapBase()
					env.Sbrk(hw.PageSize)
					n, _ := env.Read(fd, va, 128)
					out := make([]byte, n)
					for i := 0; i < n; i++ {
						out[i] = env.Exec().Load8(va + uint32(i))
					}
					env.WriteString(1, "reader: got \""+string(out)+"\"\n")
				})
				u.RegisterProgram("idler", func(env *unixemu.ProcEnv) {
					env.Store32(env.HeapBase(), 7)
					env.Sleep(150) // long enough to be swapped out
					if env.Load32(env.HeapBase()) == 7 {
						env.WriteString(1, "idler: heap intact after swap\n")
					}
				})
				u.RegisterProgram("init", func(env *unixemu.ProcEnv) {
					env.Spawn("idler")
					wpid, _ := env.Spawn("writer")
					_ = wpid
					env.Wait() // writer or idler
					env.Spawn("reader")
					env.Wait()
					env.Wait()
					env.WriteString(1, "init: done\n")
				})
				p, err := u.Spawn(me, "init", nil)
				if err != nil {
					log.Fatal(err)
				}
				for q := u.Proc(p.PID()); q != nil && !q.Exited(); q = u.Proc(p.PID()) {
					me.Charge(hw.CyclesFromMicros(2000))
				}
				u.StopScheduler()
			})
		if err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	m.SetMaxSteps(2_000_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		log.Fatal(err)
	}

	fmt.Print(string(u.Console))
	fmt.Printf("\nemulator: %d syscalls, %d wakeups, %d swap-outs, %d swap-ins\n",
		u.Syscalls, u.Wakeups, u.SwapsOut, u.SwapsIn)
	fmt.Printf("cache kernel: %d thread loads / %d unloads (sleep = unload, wakeup = reload)\n",
		k.Stats.ThreadLoads, k.Stats.ThreadUnloads)
}
