package simtest

import "vpp/internal/chaos"

// Shrink greedily reduces a failing scenario to a smaller one that
// still fails, bounded by maxRuns re-executions. The reduction passes,
// in order: delta-debugging over the op stream (drop halves, then
// quarters, and so on), dropping faults one at a time, and switching
// application-kernel mixes off. Every candidate is re-run from scratch
// under the virtual clock, so the whole reduction is deterministic.
//
// Candidate probes run with the early-stop option: the machine runs in
// virtual-time chunks and stops as soon as an oracle has recorded a
// failure. Failures land at deterministic virtual times, so an
// early-stopped probe fails if and only if the full run fails; the
// result finally returned is always from a full re-run of the winning
// scenario.
func Shrink(sc Scenario, maxRuns int) (Scenario, *Result) {
	runs := 0

	best := sc
	bestRes := Run(best, nil)
	if !bestRes.Failed() {
		return best, bestRes
	}

	fails := func(c Scenario) bool {
		if runs >= maxRuns {
			return false
		}
		runs++
		return runWith(c, nil, true).Failed()
	}

	// Pass 1: ddmin-lite over the op stream.
	for chunk := (len(best.Ops) + 1) / 2; chunk >= 1; {
		removed := false
		for start := 0; start+chunk <= len(best.Ops); {
			c := best
			c.Ops = make([]Op, 0, len(best.Ops)-chunk)
			c.Ops = append(c.Ops, best.Ops[:start]...)
			c.Ops = append(c.Ops, best.Ops[start+chunk:]...)
			if fails(c) {
				best = c
				removed = true
				// Same start now addresses the next ops; don't advance.
			} else {
				start += chunk
			}
			if runs >= maxRuns {
				break
			}
		}
		if runs >= maxRuns {
			break
		}
		if !removed && chunk == 1 {
			break
		}
		if chunk > 1 {
			chunk = (chunk + 1) / 2
		} else if !removed {
			break
		}
	}

	// Pass 2: drop faults one at a time. Removing the last CrashKernel
	// fault also clears the crash-family flag so the oracles' crash
	// accounting matches the plan.
	for i := 0; i < len(best.Faults) && runs < maxRuns; {
		c := best
		c.Faults = make([]chaos.Fault, 0, len(best.Faults)-1)
		c.Faults = append(c.Faults, best.Faults[:i]...)
		c.Faults = append(c.Faults, best.Faults[i+1:]...)
		if c.Crash && !hasCrashFault(c.Faults) {
			c.Crash = false
			c.CrashAtUS = 0
		}
		if fails(c) {
			best = c
		} else {
			i++
		}
	}

	// Pass 3: switch mixes off one at a time.
	muts := []func(*Scenario){
		func(c *Scenario) { c.Mix.Unix = false },
		func(c *Scenario) { c.Mix.RTK = false },
		func(c *Scenario) { c.Mix.DSM = false },
		func(c *Scenario) { c.Mix.Netboot = false },
	}
	for _, mut := range muts {
		if runs >= maxRuns {
			break
		}
		c := best
		mut(&c)
		if scenarioEqual(c, best) {
			continue
		}
		if fails(c) {
			best = c
		}
	}

	// Probes stopped early; the reported reduction is always a full run.
	if len(best.Ops) != len(sc.Ops) || len(best.Faults) != len(sc.Faults) || !scenarioEqual(best, sc) {
		bestRes = Run(best, nil)
		if !bestRes.Failed() {
			// Defensive: early stop cannot turn a failing run into a
			// passing one — but never return a "reduction" that passes.
			// Fall back to the original, which the initial run proved
			// failing.
			best = sc
			bestRes = Run(best, nil)
		}
	}
	return best, bestRes
}

func hasCrashFault(fs []chaos.Fault) bool {
	for _, f := range fs {
		if f.Kind == chaos.CrashKernel {
			return true
		}
	}
	return false
}

// scenarioEqual compares the scalar shape (slices excluded: the mix
// mutations never touch them).
func scenarioEqual(a, b Scenario) bool {
	return a.Seed == b.Seed && a.MPMs == b.MPMs && a.CPUsPerMPM == b.CPUsPerMPM &&
		a.ThreadSlots == b.ThreadSlots && a.MappingSlots == b.MappingSlots &&
		a.HorizonUS == b.HorizonUS && a.Mix == b.Mix && a.Crash == b.Crash &&
		a.CrashAtUS == b.CrashAtUS && a.FaultSeed == b.FaultSeed
}
