package srm

import (
	"strings"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// Crash recovery (paper §3): the Cache Kernel holds nothing an
// application kernel cannot regenerate, so a crash-reboot of an MPM's
// instance costs latency, not state. The SRM proves it: a guardian
// engine — modeled as a device execution, so it survives the reset
// that kills the CPUs' contexts — polls the SRM's dependency records,
// detects that its kernel identifier no longer validates, re-boots the
// SRM as the first kernel and replays the Unswap reload path for every
// launched kernel. Each recovered kernel then rebuilds its own threads
// from its backing records via its OnRecover hook.

// recoverPrio is the priority of per-kernel recovery threads: above
// ordinary application work so recovery completes promptly, below the
// SRM's boot thread.
const recoverPrio = 45

// RecoveryReport is the virtual-time breakdown of one recovery.
type RecoveryReport struct {
	// CrashEpoch is the Cache Kernel epoch this recovery established.
	CrashEpoch uint64
	// DetectAt is when the guardian observed that the SRM's kernel
	// identifier stopped validating (detection latency is DetectAt
	// minus the crash time, which only the fault plan knows).
	DetectAt uint64
	// RebootAt is when the Cache Kernel was re-booted with the SRM as
	// first kernel (the CPUs had drained their killed contexts).
	RebootAt uint64
	// ReloadAt is when every launched kernel was reloaded and its
	// recovery thread dispatched.
	ReloadAt uint64
	// FirstResume is the first post-reboot dispatch of a non-SRM
	// thread — the moment application progress restarts (0 if no
	// application kernel was launched or none resumed in the guard
	// window).
	FirstResume uint64
	// Kernels counts launched kernels reloaded; Revived counts main
	// threads whose execution context died in the crash and was
	// recreated from its body; Services counts SRM service threads
	// restarted from their bodies.
	Kernels  int
	Revived  int
	Services int
	// Err records the first reload failure, if any.
	Err error
}

// GuardConfig configures the SRM's recovery guardian.
type GuardConfig struct {
	// Interval is the virtual-time probe period in cycles.
	Interval uint64
	// Until retires the guardian at this virtual time; it must be set
	// for workloads that expect the engine to quiesce, because a
	// guardian with no horizon probes forever.
	Until uint64
	// OnRecovered observes each completed recovery.
	OnRecovered func(r *RecoveryReport)
}

// Guardian is the detection/recovery engine for one SRM.
type Guardian struct {
	S       *SRM
	Cfg     GuardConfig
	Reports []*RecoveryReport

	stopped bool
}

// Guard starts a guardian probing the SRM's dependency records every
// Interval cycles of virtual time, and observes the Cache Kernel's
// dispatches to stamp each recovery's FirstResume.
func (s *SRM) Guard(cfg GuardConfig) *Guardian {
	if cfg.Interval == 0 {
		cfg.Interval = 500 * hw.CyclesPerMicrosecond
	}
	g := &Guardian{S: s, Cfg: cfg}
	s.CK.Observe(s.watchResume)
	s.MPM.NewDeviceExec("srm/guard", g.run)
	return g
}

// Stop retires the guardian at its next probe.
func (g *Guardian) Stop() { g.stopped = true }

func (g *Guardian) run(e *hw.Exec) {
	for !g.stopped {
		if g.Cfg.Until != 0 && e.Now() >= g.Cfg.Until {
			return
		}
		e.Charge(g.Cfg.Interval)
		if g.stopped {
			return
		}
		// The probe: validate the SRM's own kernel identifier. A loaded
		// first kernel is locked in the cache, so the identifier failing
		// can only mean the instance rebooted underneath us.
		e.Charge(hw.CostInstr * 16)
		if g.S.CK.Loaded(g.S.ID) {
			continue
		}
		r := g.S.Recover(e)
		g.Reports = append(g.Reports, r)
		// Wait (bounded) for the first application thread to resume, so
		// the report's breakdown is complete before it is published.
		if r.Err == nil && r.Kernels > 0 {
			deadline := e.Now() + hw.CyclesFromMicros(200_000)
			for r.FirstResume == 0 && e.Now() < deadline {
				e.Charge(g.Cfg.Interval)
			}
		}
		if g.Cfg.OnRecovered != nil {
			g.Cfg.OnRecovered(r)
		}
	}
}

// Recover rebuilds the Cache Kernel's state after a crash-reboot: it
// drains the killed contexts off the CPUs, discards every stale
// identifier the libraries held, re-boots the SRM, and replays the
// Unswap path for each launched kernel. Main threads whose contexts
// died are recreated from their bodies; kernels with an OnRecover hook
// additionally get a fresh recovery thread in their own space to
// reload their internal threads. It must run outside any Cache Kernel
// thread (the guardian's device execution), and the report's
// FirstResume is stamped afterwards by the observer Guard registers.
//
// Threads that were parked (blocked or ready) at the crash resume
// exactly where they stopped once reloaded; only contexts that were
// running on a CPU are lost. A pre-crash SRM main that neither
// returned nor was killed stays parked forever — crash-aware workloads
// structure their SRM main to return after setup.
func (s *SRM) Recover(e *hw.Exec) *RecoveryReport {
	k := s.CK
	r := &RecoveryReport{DetectAt: e.Now(), CrashEpoch: k.Epoch}
	k.Emit(ck.Event{At: r.DetectAt, Kind: ck.EvRecoverDetect, Obj: s.ID, A: k.Epoch})
	// Killed contexts unwind at their next charge point; Boot needs the
	// CPUs idle.
	for {
		busy := false
		for _, cpu := range s.MPM.CPUs {
			if cpu.Cur != nil {
				busy = true
			}
		}
		if !busy {
			break
		}
		e.Charge(hw.CostInstr * 16)
	}
	// Every identifier minted before the crash is dead. Discard the
	// libraries' loaded-state records; backing records stay.
	oldSID := s.SpaceID
	s.InvalidateLoadedState()
	s.DetachSpace(oldSID)
	names := s.launchedNames()
	for _, n := range names {
		l := s.launched[n]
		l.AK.InvalidateLoadedState()
		s.DetachSpace(l.SID)
		l.AK.DetachSpace(l.SID)
		l.KID, l.SID = 0, 0
		if l.Main != nil {
			l.Main.MarkUnloaded()
		}
	}

	// Re-boot. The boot thread runs the reload sequence on CPU 0 while
	// the guardian waits; timestamps are taken on the boot thread's
	// clock so they reflect charged reload work.
	cpu0 := s.MPM.CPUs[0]
	cpu0.Clock.AdvanceTo(e.Now())
	r.RebootAt = e.Now()
	k.Emit(ck.Event{At: r.RebootAt, Kind: ck.EvRecoverReboot})
	s.resuming = r
	done := false
	attrs := s.Attrs()
	attrs.Name = "srm"
	boot, err := k.Boot(attrs, 50, func(be *hw.Exec) {
		s.AdoptThread("boot", s.Boot.Thread, s.Boot.Space, be, 50)
		for _, n := range names {
			l := s.launched[n]
			if l.Main != nil && l.Main.Exec.Finished() && l.Main.Revive() {
				r.Revived++
				k.Emit(ck.Event{At: be.Now(), Kind: ck.EvRecoverRevive, Name: n})
			}
			if err := s.Unswap(be, n); err != nil {
				if r.Err == nil {
					r.Err = err
				}
				continue
			}
			r.Kernels++
			k.Emit(ck.Event{At: be.Now(), Kind: ck.EvRecoverReload, Obj: l.KID, Name: n})
			if l.AK.OnRecover != nil {
				rt := l.AK.NewThread("recover", l.SID, recoverPrio, l.AK.OnRecover)
				if err := rt.Load(be, false); err != nil && r.Err == nil {
					r.Err = err
				}
			}
		}
		// Restart registered service threads. A pre-crash service context
		// is unrecoverable even when it was parked off-CPU: its pending
		// alarm deliveries are generation-checked against a descriptor
		// that no longer exists, so it would wait forever. Kill it and
		// regenerate from the body (services are written to set up from
		// the top).
		for _, n := range s.serviceNames() {
			t := s.services[n]
			t.Retire()
			if !t.Rehome() {
				continue
			}
			t.SpaceID = s.SpaceID
			if err := t.Load(be, true); err != nil {
				if r.Err == nil {
					r.Err = err
				}
				continue
			}
			r.Services++
			k.Emit(ck.Event{At: be.Now(), Kind: ck.EvRecoverService, Name: n})
		}
		r.ReloadAt = be.Now()
		done = true
	})
	if err != nil {
		r.Err = err
		s.resuming = nil
		return r
	}
	s.Boot = boot
	s.ID = boot.Kernel
	s.SpaceID = boot.Space
	if s.Mem != nil {
		s.Mem.SID = boot.Space
		s.AttachSpace(boot.Space, s.Mem)
	}
	for !done {
		e.Charge(hw.CostInstr * 16)
	}
	return r
}

// watchResume is the guardian's dispatch observer: the first dispatch
// of a non-SRM thread after a reboot is the moment application progress
// restarts, and it completes the waiting recovery's report.
func (s *SRM) watchResume(ev ck.Event) {
	r := s.resuming
	if r == nil || ev.Kind != ck.EvDispatch || strings.HasPrefix(ev.Name, "srm/") {
		return
	}
	r.FirstResume = ev.At
	s.resuming = nil
	s.CK.Emit(ck.Event{At: ev.At, Kind: ck.EvRecoverResume, Name: ev.Name})
}

// launchedNames returns the launched kernel names in deterministic
// order.
func (s *SRM) launchedNames() []string {
	names := make([]string, 0, len(s.launched))
	//ckvet:allow detmap keys are collected then sorted before use
	for n := range s.launched {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
