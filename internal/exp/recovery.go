package exp

import (
	"fmt"
	"math"

	"vpp/internal/aklib"
	"vpp/internal/chaos"
	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/srm"
	"vpp/internal/unixemu"
)

// RecoveryResult is the virtual-time breakdown of a scripted Cache
// Kernel crash and recovery (the fault-tolerance claim of paper §3: all
// Cache Kernel state is regenerable from the application kernels, so a
// crash costs latency, not correctness).
type RecoveryResult struct {
	// CrashAt is the scripted crash instant (cycles of virtual time).
	CrashAt uint64
	// DetectAt/RebootAt/ReloadAt/FirstResume are the recovery
	// milestones reported by the SRM guardian.
	DetectAt    uint64
	RebootAt    uint64
	ReloadAt    uint64
	FirstResume uint64
	// KernelsReloaded counts launched kernels brought back via the
	// Unswap path; MainsRevived counts main threads whose execution
	// context died with the crash; ProcRestarts counts emulated UNIX
	// processes rerun from their program start.
	KernelsReloaded int
	MainsRevived    int
	ProcRestarts    uint64
	// CrashEpoch is the Cache Kernel epoch established by the crash.
	CrashEpoch uint64
	// Console is the UNIX console after the run: every process finished
	// correctly despite the crash.
	Console string
	// FinalClock/Steps fingerprint the run for the determinism golden.
	FinalClock uint64
	Steps      uint64
}

func us(cycles uint64) float64 { return float64(cycles) / hw.CyclesPerMicrosecond }

func (r RecoveryResult) String() string {
	s := fmt.Sprintf("crash injected at %.1f µs (epoch %d)\n", us(r.CrashAt), r.CrashEpoch)
	s += fmt.Sprintf("%-22s %12s %14s\n", "milestone", "at (µs)", "after crash")
	row := func(name string, at uint64) string {
		return fmt.Sprintf("%-22s %12.1f %+13.1fµs\n", name, us(at), us(at)-us(r.CrashAt))
	}
	s += row("detected", r.DetectAt)
	s += row("rebooted", r.RebootAt)
	s += row("kernels reloaded", r.ReloadAt)
	s += row("first app resume", r.FirstResume)
	s += fmt.Sprintf("reloaded %d kernel(s); revived %d main thread(s); restarted %d process(es)\n",
		r.KernelsReloaded, r.MainsRevived, r.ProcRestarts)
	s += fmt.Sprintf("final virtual clock %.1f ms\n", us(r.FinalClock)/1000)
	s += "--- UNIX console (post-recovery) ---\n" + r.Console
	return s
}

// RunRecoveryWorkload boots a one-MPM system — SRM plus a UNIX emulator
// timesharing an init with three children (a quick hello, a sleeper
// whose nap spans the crash, and a compute process that is running when
// the crash hits) — arms a chaos plan that crash-reboots the Cache
// Kernel at a fixed virtual time, and lets the SRM guardian detect the
// failure and recover. It verifies that every process still finishes
// (the sleeper resumes from its backing record, the killed compute
// process is rerun from its program start) and returns the recovery
// latency breakdown. Fully deterministic; the recovery golden hashes
// its dispatch schedule.
func RunRecoveryWorkload(trace func(name string, id int, at uint64)) (RecoveryResult, error) {
	var res RecoveryResult
	res.CrashAt = hw.CyclesFromMicros(18_000)
	horizon := hw.CyclesFromMicros(120_000)

	cfg := hw.DefaultConfig()
	cfg.MPMs = 1
	m := hw.NewMachine(cfg)
	defer m.Close()
	m.SetTraceDispatch(trace)
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		return res, err
	}

	inj := chaos.New(chaos.Plan{Seed: 0x52454356, Faults: []chaos.Fault{
		{Kind: chaos.CrashKernel, At: res.CrashAt, MPM: 0},
	}})
	inj.Arm(m, k)

	var (
		u        *unixemu.Unix
		initPID  int
		unixDone bool
		bodyErr  error
		reports  []*srm.RecoveryReport
	)
	_, err = srm.Start(k, m.MPMs[0], func(s *srm.SRM, e *hw.Exec) {
		_, lerr := s.Launch(e, "unix", srm.LaunchOpts{Groups: 16, MainPrio: 31, MaxPrio: 34},
			func(ak *aklib.AppKernel, me *hw.Exec) {
				// A crash can kill this thread while it waits below; the
				// revived context reruns the closure, so setup happens
				// only on the first pass.
				if u == nil {
					u = unixemu.New(ak)
					if err := u.StartScheduler(me); err != nil {
						bodyErr = err
						return
					}
					u.RegisterProgram("hello", func(env *unixemu.ProcEnv) {
						env.WriteString(1, fmt.Sprintf("hello from pid %d\n", env.Getpid()))
					})
					u.RegisterProgram("napper", func(env *unixemu.ProcEnv) {
						env.Sleep(40)
						env.WriteString(1, fmt.Sprintf("napper pid %d rested\n", env.Getpid()))
					})
					u.RegisterProgram("crunch", func(env *unixemu.ProcEnv) {
						env.Sbrk(4 * hw.PageSize)
						for lap := uint32(0); lap < 80; lap++ {
							env.Store32(env.HeapBase()+lap%4*hw.PageSize, lap)
							env.Exec().Charge(hw.CyclesFromMicros(500))
						}
						env.WriteString(1, fmt.Sprintf("crunch pid %d done\n", env.Getpid()))
					})
					u.RegisterProgram("init", func(env *unixemu.ProcEnv) {
						env.Spawn("hello")
						env.Spawn("napper")
						env.Spawn("crunch")
						for i := 0; i < 3; i++ {
							env.Wait()
						}
						env.WriteString(1, "init: all children reaped\n")
					})
					p, perr := u.Spawn(me, "init", nil)
					if perr != nil {
						bodyErr = perr
						return
					}
					initPID = p.PID()
				}
				for q := u.Proc(initPID); q != nil && !q.Exited(); q = u.Proc(initPID) {
					me.Charge(hw.CyclesFromMicros(2000))
				}
				u.StopScheduler()
				unixDone = true
			})
		if lerr != nil {
			bodyErr = lerr
			return
		}
		s.Guard(srm.GuardConfig{
			Interval: hw.CyclesFromMicros(250),
			Until:    horizon,
			OnRecovered: func(r *srm.RecoveryReport) {
				reports = append(reports, r)
			},
		})
		// Return: the boot thread exits after setup, so the crash finds
		// nothing of the SRM to strand. The guardian — a device
		// execution, outside the Cache Kernel — is what survives.
	})
	if err != nil {
		return res, err
	}
	m.SetMaxSteps(2_000_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return res, err
	}
	if bodyErr != nil {
		return res, bodyErr
	}
	if len(reports) != 1 {
		return res, fmt.Errorf("exp: expected exactly one recovery, got %d", len(reports))
	}
	r := reports[0]
	if r.Err != nil {
		return res, fmt.Errorf("exp: recovery failed: %w", r.Err)
	}
	if !unixDone {
		return res, fmt.Errorf("exp: unix workload did not complete after recovery; console:\n%s", u.Console)
	}
	res.DetectAt = r.DetectAt
	res.RebootAt = r.RebootAt
	res.ReloadAt = r.ReloadAt
	res.FirstResume = r.FirstResume
	res.KernelsReloaded = r.Kernels
	res.MainsRevived = r.Revived
	res.CrashEpoch = k.Epoch
	res.ProcRestarts = u.Restarts
	res.Console = string(u.Console)
	res.FinalClock = m.Now()
	res.Steps = m.Steps()
	return res, nil
}
