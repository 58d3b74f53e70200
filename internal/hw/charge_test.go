package hw

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Cause bits of the charge lockstep: each asks the interrupt handler
// for one action.
const (
	causeTick   = 1 << iota // log only
	causeMove               // the handler moves the context to the other free CPU
	causeRepost             // the handler posts causeTick to its own CPU again
	causeKill               // the handler kills its own context
)

// refCharge and refChargeNoIntr are the charge rule before the
// attention limit: advance (yielding past the horizon), then the kill
// test, then (Charge only) the pending test, at every charge.
func refCharge(e *Exec, cycles uint64) {
	e.ctx.Advance(cycles)
	if e.killed {
		e.Exit()
	}
	if c := e.CPU; c != nil && c.pending != 0 {
		e.pollInterrupts(c)
	}
}

func refChargeNoIntr(e *Exec, cycles uint64) {
	e.ctx.Advance(cycles)
	if e.killed {
		e.Exit()
	}
}

// chargeRig runs one seeded charge script on a three-CPU MPM and logs
// everything it observes. Successive lives of the scripted context run
// on CPUs 0 and 2; a poker context on CPU 1 posts causes to them; a
// device context sleeps until woken.
type chargeRig struct {
	fakeSup
	m       *Machine
	mpm     *MPM
	seed    int64
	lives   int
	ref     bool
	log     []string
	sleeper *Exec
	armed   [3]uint64
}

func (r *chargeRig) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

func (r *chargeRig) charge(e *Exec, cycles uint64) {
	if r.ref {
		refCharge(e, cycles)
	} else {
		e.Charge(cycles)
	}
}

func (r *chargeRig) chargeNoIntr(e *Exec, cycles uint64) {
	if r.ref {
		refChargeNoIntr(e, cycles)
	} else {
		e.ChargeNoIntr(cycles)
	}
}

// Interrupt logs the delivery, charges inside the handler and acts on
// the causes.
func (r *chargeRig) Interrupt(e *Exec, p uint32) {
	r.logf("%s: interrupt %#x at %d on cpu %d", e.Name, p, e.Now(), e.CPU.ID)
	r.charge(e, 7)
	if p&causeRepost != 0 {
		e.CPU.Post(causeTick)
	}
	if p&causeKill != 0 {
		e.Kill()
		return
	}
	if p&causeMove != 0 && e.CPU.ID != 1 {
		r.move(e)
	}
}

// TimerTick posts a tick from engine context.
func (r *chargeRig) TimerTick(c *CPU) {
	r.logf("timer on cpu %d at %d", c.ID, r.m.Engine.Now())
	c.Post(causeTick)
}

// Exited dispatches the next life on the CPU the last one left.
func (r *chargeRig) Exited(e *Exec) {
	r.logf("%s: exited at %d", e.Name, e.Now())
	if strings.HasPrefix(e.Name, "life") && r.lives > 0 {
		r.lives--
		e.CPU.Dispatch(r.life())
	}
}

// move parks e and dispatches it on the other of CPUs 0 and 2 at its
// current clock.
func (r *chargeRig) move(e *Exec) {
	to := r.mpm.CPUs[2-e.CPU.ID]
	r.logf("%s: move to cpu %d at %d", e.Name, to.ID, e.Now())
	to.Clock.AdvanceTo(e.Now())
	r.m.Engine.ScheduleAt(e.Now(), func() { to.Dispatch(e) })
	e.Park()
}

// post logs a post and makes it.
func (r *chargeRig) post(from string, c *CPU, bits uint32) {
	r.logf("%s: post %#x to cpu %d at %d", from, bits, c.ID, r.m.Engine.Now())
	c.Post(bits)
}

// life returns the next scripted context: a seeded stream of charges,
// posts from itself and from events, kills from itself, from events
// and from its interrupt handler, horizon shrinks (events, a wakeup,
// timer arming) and preemptions onto the other CPU.
func (r *chargeRig) life() *Exec {
	name := fmt.Sprintf("life%d", r.lives)
	rng := rand.New(rand.NewSource(r.seed*1000 + int64(r.lives)))
	return r.mpm.NewExec(name, func(e *Exec) {
		for op := 0; op < 300; op++ {
			now := e.Now()
			switch x := rng.Intn(100); {
			case x < 40:
				r.charge(e, 1+uint64(rng.Intn(6000)))
				r.logf("%s: charged to %d", name, e.Now())
			case x < 50:
				r.chargeNoIntr(e, 1+uint64(rng.Intn(6000)))
				r.logf("%s: charged (no interrupt) to %d", name, e.Now())
			case x < 58:
				r.post(name, e.CPU, []uint32{causeTick, causeMove, causeRepost, causeTick | causeMove}[rng.Intn(4)])
			case x < 68:
				c := r.mpm.CPUs[2*rng.Intn(2)]
				bits := uint32(1 + rng.Intn(causeRepost|causeMove))
				r.m.Engine.ScheduleAt(now+uint64(rng.Intn(30000)), func() { r.post("event", c, bits) })
			case x < 72:
				at := now + uint64(rng.Intn(3000))
				r.m.Engine.ScheduleAt(at, func() { r.logf("event at %d", at) })
			case x < 76:
				r.logf("%s: wake sleeper at %d", name, now)
				r.sleeper.Wake()
			case x < 80:
				c := e.CPU
				at := max(now+uint64(rng.Intn(20000)), r.armed[c.ID])
				r.armed[c.ID] = at
				c.ArmTimerAt(at)
			case x < 86:
				r.move(e)
			case x < 87:
				r.logf("%s: kill itself at %d", name, now)
				e.Kill()
			case x < 88:
				r.m.Engine.ScheduleAt(now+uint64(rng.Intn(20000)), func() {
					r.logf("event: kill %s at %d", name, r.m.Engine.Now())
					e.Kill()
				})
			case x < 89:
				r.post(name, e.CPU, causeKill)
			default:
				r.charge(e, uint64(rng.Intn(3)))
				r.logf("%s: charged to %d", name, e.Now())
			}
		}
	})
}

// runChargeScript runs seed's script with the reference rule or with
// Charge and returns the log.
func runChargeScript(t *testing.T, seed int64, ref bool) []string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CPUsPerMPM = 3
	r := &chargeRig{m: NewMachine(cfg), seed: seed, lives: 8, ref: ref}
	defer r.m.Close()
	r.mpm = r.m.MPMs[0]
	r.mpm.Sup = r
	r.sleeper = r.mpm.NewDeviceExec("sleeper", func(e *Exec) {
		for {
			r.logf("sleeper: runs at %d", e.Now())
			r.charge(e, 5)
			e.Park()
		}
	})
	poker := r.mpm.NewExec("poker", func(e *Exec) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			r.charge(e, 1+uint64(rng.Intn(8000)))
			if rng.Intn(3) == 0 {
				r.post("poker", r.mpm.CPUs[2*rng.Intn(2)], uint32(1+rng.Intn(causeRepost|causeMove)))
			}
		}
	})
	r.mpm.CPUs[1].Dispatch(poker)
	r.lives--
	r.mpm.CPUs[0].Dispatch(r.life())
	if err := r.m.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	return r.log
}

// TestChargeMatchesReference runs seeded scripts twice, once charging
// with Charge and ChargeNoIntr and once with the rule they replace,
// which advances, then tests the kill flag, then the pending causes at
// every charge. Both runs must log the same deliveries, kills, moves,
// wakeups and events at the same clocks in the same order: the
// one-compare fast path is taken only when the old rule would have
// done nothing but add, and the slow path yields at the same points.
func TestChargeMatchesReference(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 24; seed++ {
		want := runChargeScript(t, seed, true)
		got := runChargeScript(t, seed, false)
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("seed %d, line %d: Charge logged %q, the reference rule %q", seed, i, g, w)
			}
		}
		for _, l := range got {
			for _, k := range []string{"interrupt", "move", "exited", "event: kill", "kill itself", "sleeper", "timer", "event at"} {
				if strings.Contains(l, k) {
					seen[k]++
				}
			}
		}
	}
	for _, k := range []string{"interrupt", "move", "exited", "event: kill", "kill itself", "sleeper", "timer", "event at"} {
		if seen[k] < 10 {
			t.Errorf("scripts logged %q %d times", k, seen[k])
		}
	}
}
