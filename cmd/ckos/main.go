// Command ckos boots the whole V++ system image on the simulated
// ParaDiGM machine — the software architecture of the paper's Figures 1
// and 5: the Cache Kernel in supervisor mode, the system resource
// manager as the first kernel, and then, concurrently, a UNIX emulator
// timesharing a few processes, a database kernel answering queries and
// a wind-tunnel simulation kernel — all sharing the hardware under the
// SRM's resource allocation.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"vpp/internal/aklib"
	"vpp/internal/ck"
	"vpp/internal/dbk"
	"vpp/internal/hw"
	"vpp/internal/simk"
	"vpp/internal/srm"
	"vpp/internal/unixemu"
)

func main() {
	verbose := flag.Bool("v", false, "verbose event output")
	flag.Parse()

	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *verbose {
		k.Observe(func(ev ck.Event) {
			if ev.Kind != ck.EvDispatch {
				fmt.Printf("%12.1fµs  %-16s %s\n", float64(ev.At)/hw.CyclesPerMicrosecond, ev.Kind, ev.Detail())
			}
		})
	}

	var unixDone, dbDone, simDone bool
	var console *[]byte
	var dbReads uint64
	var mp3dRes simk.MP3DResult

	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		// --- UNIX emulator: timesharing three processes ---
		_, err := s.Launch(e, "unix", srm.LaunchOpts{Groups: 16, MainPrio: 31, MaxPrio: 34, CPUShare: []int{60, 60, 60, 60}},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				u := unixemu.New(ak)
				console = &u.Console
				if err := u.StartScheduler(me); err != nil {
					fmt.Fprintln(os.Stderr, "unix scheduler:", err)
					return
				}
				u.RegisterProgram("hello", func(env *unixemu.ProcEnv) {
					env.WriteString(1, fmt.Sprintf("hello from pid %d\n", env.Getpid()))
				})
				u.RegisterProgram("worker", func(env *unixemu.ProcEnv) {
					env.Sbrk(2 * hw.PageSize)
					for i := uint32(0); i < 64; i++ {
						env.Store32(env.HeapBase()+i*64, i)
					}
					env.Sleep(10)
					env.WriteString(1, fmt.Sprintf("worker pid %d finished\n", env.Getpid()))
				})
				u.RegisterProgram("init", func(env *unixemu.ProcEnv) {
					env.Spawn("hello")
					env.Spawn("worker")
					env.Spawn("worker")
					for i := 0; i < 3; i++ {
						env.Wait()
					}
					env.WriteString(1, "init: all children reaped\n")
				})
				p, err := u.Spawn(me, "init", nil)
				if err != nil {
					fmt.Fprintln(os.Stderr, "spawn init:", err)
					return
				}
				for q := u.Proc(p.PID()); q != nil && !q.Exited(); q = u.Proc(p.PID()) {
					me.Charge(hw.CyclesFromMicros(2000))
				}
				u.StopScheduler()
				unixDone = true
			})
		if err != nil {
			fmt.Fprintln(os.Stderr, "launch unix:", err)
			return
		}

		// --- database kernel: mixed query workload ---
		_, err = s.Launch(e, "db", srm.LaunchOpts{Groups: 8, MainPrio: 26, CPUShare: []int{40, 40, 40, 40}},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				store := dbk.NewTableStore(48, 2000*hw.CyclesPerMicrosecond)
				db, err := dbk.New(me, ak, store, 12, dbk.PolicyQueryAware)
				if err != nil {
					fmt.Fprintln(os.Stderr, "db:", err)
					return
				}
				for round := 0; round < 2; round++ {
					for i := uint32(0); i < 32; i++ {
						db.Lookup(me, i%8*6)
					}
					db.SeqScan(me)
				}
				dbReads = store.Reads
				dbDone = true
			})
		if err != nil {
			fmt.Fprintln(os.Stderr, "launch db:", err)
			return
		}

		// --- simulation kernel: a short MP3D run ---
		_, err = s.Launch(e, "simk", srm.LaunchOpts{Groups: 16, MainPrio: 24},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				cfg := simk.DefaultMP3DConfig()
				cfg.CellsX, cfg.CellsY, cfg.ParticlesPerCell = 16, 8, 8
				cfg.Steps, cfg.Workers = 3, 2
				mp, err := simk.NewMP3D(me, ak, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "mp3d:", err)
					return
				}
				mp3dRes, _ = mp.Run(me)
				simDone = true
			})
		if err != nil {
			fmt.Fprintln(os.Stderr, "launch simk:", err)
			return
		}

		for !unixDone || !dbDone || !simDone {
			e.Charge(hw.CyclesFromMicros(5000))
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m.SetMaxSteps(2_000_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Println("=== V++ system image: run complete ===")
	fmt.Printf("virtual time: %.1f ms\n", float64(m.MPMs[0].Engine.Now())/hw.CyclesPerMicrosecond/1000)
	if console != nil {
		fmt.Printf("--- UNIX console ---\n%s", string(*console))
	}
	fmt.Printf("--- database ---\n%d disk reads under the query-aware pool\n", dbReads)
	fmt.Printf("--- wind tunnel ---\n%v\n", mp3dRes)
	st := k.Stats
	fmt.Printf("--- Cache Kernel ---\n")
	fmt.Printf("loads: %d kernels, %d spaces, %d threads, %d mappings\n",
		st.KernelLoads, st.SpaceLoads, st.ThreadLoads, st.MappingLoads)
	fmt.Printf("faults %d, forwarded traps %d, signals %d (fast %d), context switches %d\n",
		st.Faults, st.TrapsForwarded, st.SignalsGenerated, st.SignalsFast, st.ContextSwitches)
}
