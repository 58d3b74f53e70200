package simtest

import (
	"vpp/internal/chaos"
	"vpp/internal/hw"
	"vpp/internal/sim"
)

// Generate expands one seed into a complete scenario through sim.Rand
// (SplitMix64), the repo's only sanctioned randomness. The same seed
// always yields the same scenario, so a seed alone is a reproduction.
//
// Two families: roughly a fifth of seeds are crash-recovery scenarios
// (one MPM, a scripted Cache Kernel crash under a UNIX process tree,
// an SRM guardian recovering it); the rest are multi-MPM scenarios
// mixing application kernels, driver op streams and a fault plan.
func Generate(seed uint64) Scenario {
	r := sim.NewRand(seed)
	sc := Scenario{Seed: seed}
	if r.Intn(5) == 0 {
		return generateCrash(r, sc)
	}

	sc.MPMs = 1 + r.Intn(3)
	sc.CPUsPerMPM = 2 + 2*r.Intn(2)
	sc.ThreadSlots = 128 << r.Intn(2)
	sc.MappingSlots = []int{256, 512, 4096}[r.Intn(3)]
	sc.HorizonUS = 150_000 + r.Intn(100_000)

	// Application-kernel mixes. The UNIX emulator wants four CPUs and
	// headroom in the mapping cache; DSM needs a second node for the
	// fiber.
	sc.Mix.Unix = r.Intn(3) == 0
	if sc.Mix.Unix {
		sc.CPUsPerMPM = 4
		if sc.MappingSlots < 512 {
			sc.MappingSlots = 512
		}
	}
	sc.Mix.RTK = r.Intn(3) == 0
	sc.Mix.DSM = sc.MPMs >= 2 && r.Intn(3) == 0
	sc.Mix.Netboot = r.Intn(3) == 0

	sc.FaultSeed = r.Uint64()
	sigFaults := genFaults(r, &sc)

	nops := sc.MPMs * (3 + r.Intn(6))
	kinds := []OpKind{OpPause, OpWorker, OpStorm, OpMapFlip, OpAlarm, OpPulse}
	if !sigFaults {
		kinds = append(kinds, OpEcho, OpSwap)
	}
	for i := 0; i < nops; i++ {
		sc.Ops = append(sc.Ops, genOp(r, kinds, sc.MPMs, sigFaults))
	}
	return sc
}

// GenerateOrch expands one seed into an orchestration scenario: the
// ckctl plane over 2-4 MPMs, a 50-74 pod fleet, a rolling upgrade
// (serial live migration of every instance), and one of four chaos
// variants. It is a separate family with its own seed space — Generate's
// draw sequence is untouched, so every existing seed reproduces.
//
// Horizons are generous by design: the fleet oversubscribes the CPUs
// several-fold, so a migrated pod queues behind a dozen time-sliced
// peers before its first target-side dispatch — blackouts run to
// megacycles and the serial upgrade to tens of megacycles.
func GenerateOrch(seed uint64) Scenario {
	r := sim.NewRand(seed)
	sc := Scenario{Seed: seed}
	o := &OrchSpec{}
	sc.Orch = o

	sc.MPMs = 2 + r.Intn(3)
	sc.CPUsPerMPM = 2
	sc.ThreadSlots = 256
	sc.MappingSlots = 4096
	o.Pods = 50 + r.Intn(25)
	o.BeatUS = 100 + r.Intn(150)
	o.UpgradeAtUS = 8_000 + r.Intn(12_000)
	// Per-migration cost is dominated by run-queue delay on the saturated
	// target (the moved pod waits ~runqueue x time slice for its first
	// dispatch), so the serial upgrade's makespan scales with
	// Pods^2/MPMs; the horizon budgets that with a wide margin.
	sc.HorizonUS = o.UpgradeAtUS + o.Pods*15_000 + 2_000*o.Pods*o.Pods/sc.MPMs + 400_000
	sc.FaultSeed = r.Uint64()

	upgrade := uint64(o.UpgradeAtUS) * hw.CyclesPerMicrosecond
	switch r.Intn(4) {
	case 0: // clean
	case 1: // crash the first module while the upgrade drains it
		o.Chaotic = true
		sc.Faults = append(sc.Faults, chaos.Fault{
			Kind: chaos.CrashKernel,
			At:   upgrade + uint64(300+r.Intn(3_000))*hw.CyclesPerMicrosecond,
			MPM:  0,
		})
	case 2: // kill whatever is running, a few times, anywhere
		o.Chaotic = true
		for i, n := 0, 2+r.Intn(3); i < n; i++ {
			sc.Faults = append(sc.Faults, chaos.Fault{
				Kind: chaos.KillRunning,
				At:   upgrade + uint64(r.Intn(o.Pods*20_000))*hw.CyclesPerMicrosecond,
				MPM:  r.Intn(sc.MPMs),
				CPU:  r.Intn(sc.CPUsPerMPM),
			})
		}
	case 3: // low-rate page-table walk errors (transparently retried)
		sc.Faults = append(sc.Faults, chaos.Fault{
			Kind: chaos.WalkError, Prob: 0.0005 + 0.002*r.Float64(),
		})
	}
	return sc
}

// genFaults draws the scenario's chaos plan and reports whether it
// injects signal faults. Signal-fault plans drop every library mix:
// unixemu's sleep, rtk's periodic activation and dsm's wakeups all
// block on a single signal by design, so a dropped one is a designed
// hang, not a bug — the harness's own services are the ones built to
// survive it (bounded windows, re-posted signals, drop/dup-aware
// conservation accounting).
func genFaults(r *sim.Rand, sc *Scenario) (sigFaults bool) {
	horizon := uint64(sc.HorizonUS) * hw.CyclesPerMicrosecond
	switch r.Intn(5) {
	case 0: // clean
	case 1: // drop or duplicate signals inside a bounded window
		sigFaults = true
		kind := chaos.DropSignal
		if r.Intn(2) == 1 {
			kind = chaos.DupSignal
		}
		at := horizon / 4
		sc.Faults = append(sc.Faults, chaos.Fault{
			Kind: kind, At: at, Until: at + horizon/3,
			Prob: 0.05 + 0.25*r.Float64(),
		})
		sc.Mix = Mix{}
	case 2: // corrupt eviction writebacks inside a bounded window
		at := horizon / 4
		sc.Faults = append(sc.Faults, chaos.Fault{
			Kind: chaos.CorruptWriteback, At: at, Until: at + horizon/2,
			Prob: 0.1 + 0.4*r.Float64(),
		})
	case 3: // frame loss on the boot wire, else page-table walk errors
		if sc.Mix.Netboot {
			sc.Faults = append(sc.Faults, chaos.Fault{
				Kind: chaos.DropFrame, Prob: 0.03 + 0.1*r.Float64(),
			})
		} else {
			sc.Faults = append(sc.Faults, chaos.Fault{
				Kind: chaos.WalkError, Prob: 0.001 + 0.009*r.Float64(),
			})
		}
	case 4: // low-rate walk errors (transparently retried everywhere)
		sc.Faults = append(sc.Faults, chaos.Fault{
			Kind: chaos.WalkError, Prob: 0.001 + 0.004*r.Float64(),
		})
	}
	return sigFaults
}

// generateCrash draws the crash-recovery family: the recovery
// experiment's shape (UNIX process tree, guardian, scripted crash)
// with a randomized crash instant and op stream.
func generateCrash(r *sim.Rand, sc Scenario) Scenario {
	sc.Crash = true
	sc.MPMs = 1
	sc.CPUsPerMPM = 4
	sc.ThreadSlots = 256
	sc.MappingSlots = 4096
	sc.HorizonUS = 120_000
	sc.Mix.Unix = true
	sc.CrashAtUS = 8_000 + r.Intn(20_000)
	sc.FaultSeed = r.Uint64()
	sc.Faults = []chaos.Fault{{
		Kind: chaos.CrashKernel,
		At:   uint64(sc.CrashAtUS) * hw.CyclesPerMicrosecond,
		MPM:  0,
	}}
	// Ops that survive having their service threads killed mid-flight:
	// no IPC echo, no kernel swap, no service-thread nap.
	kinds := []OpKind{OpPause, OpWorker, OpStorm, OpMapFlip, OpAlarm}
	nops := 3 + r.Intn(5)
	for i := 0; i < nops; i++ {
		sc.Ops = append(sc.Ops, genOp(r, kinds, 1, true))
	}
	return sc
}

// genOp draws one operation from the allowed kinds.
func genOp(r *sim.Rand, kinds []OpKind, mpms int, sigFaults bool) Op {
	op := Op{Kind: kinds[r.Intn(len(kinds))], MPM: r.Intn(mpms)}
	switch op.Kind {
	case OpPause:
		op.DelayUS = 50 + r.Intn(1500)
	case OpWorker:
		op.Pages = 2 + r.Intn(6)
		op.Laps = 2 + r.Intn(6)
		op.Prio = 15 + r.Intn(11)
	case OpStorm:
		op.Pages = 8 + r.Intn(25)
		op.Laps = 1 + r.Intn(4)
		op.Prio = 15 + r.Intn(11)
	case OpMapFlip:
		op.Pages = 4 + r.Intn(12)
	case OpEcho:
		op.Rounds = 2 + r.Intn(6)
	case OpPulse:
		op.Rounds = 1 + r.Intn(4)
		// The nap (self-unload/reload of the service thread) needs its
		// reload handshake signals intact.
		if !sigFaults && r.Intn(2) == 0 {
			op.DelayUS = 100 + r.Intn(400)
		}
	case OpSwap:
		op.Rounds = 1 + r.Intn(3)
	case OpAlarm:
		op.Rounds = 1 + r.Intn(4)
		op.DelayUS = 100 + r.Intn(500)
	}
	return op
}
