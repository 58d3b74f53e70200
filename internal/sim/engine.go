//go:build go1.23

// Package sim provides a deterministic discrete-virtual-time execution
// engine for the V++ Cache Kernel reproduction.
//
// An Engine multiplexes many simulated execution contexts (Coros) over a
// single OS thread of control: exactly one of its coroutines runs at any
// instant, and the engine always resumes the runnable coroutine whose
// processor clock is furthest behind. This yields a deterministic,
// serializable interleaving of the simulated multiprocessor without any
// locking in the simulated kernel code, mirroring how the real Cache
// Kernel limited parallelism to one MPM. One engine carries a whole
// simulated machine, every MPM included; its Cluster (cluster.go)
// drives it.
//
// Time is measured in processor cycles. Clocks belong to simulated CPUs;
// a coroutine advances whichever clock it is currently dispatched on, so a
// thread migrating between CPUs naturally accumulates time on each.
//
// Host-side scheduling is O(log n) in the number of runnable coroutines:
// the ready set is a min-heap keyed by (clock, id), and finished
// coroutines are dropped from the engine entirely. Each coroutine is a
// Go runtime coroutine (iter.Pull): the engine resumes it with a direct
// stack switch, and it switches straight back when it yields, with no
// trip through the Go scheduler. A yielding coroutine whose next
// scheduling decision is itself keeps running without switching at all.
// All of this changes only host data structures; the scheduling
// decisions themselves — which coroutine runs at which virtual time —
// are bit-identical to the original linear-scan engine (the determinism
// golden in internal/exp pins this). iter.Pull needs Go 1.23, hence this
// file's build constraint.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
)

// Clock is a processor-local virtual clock measured in cycles.
// The hardware layer creates one Clock per simulated CPU.
type Clock struct {
	name string
	now  uint64
}

// NewClock returns a clock starting at cycle 0.
func NewClock(name string) *Clock { return &Clock{name: name} }

// Now reports the clock's current cycle count.
func (c *Clock) Now() uint64 { return c.now }

// AdvanceTo moves the clock forward to cycle t; it never moves backward.
func (c *Clock) AdvanceTo(t uint64) {
	if t > c.now {
		c.now = t
	}
}

// Name reports the clock's name (its CPU's name, conventionally).
func (c *Clock) Name() string { return c.name }

// Coro is a simulated execution context: a thread of control that runs on
// whichever Clock it is dispatched to. Coros are created parked; the kernel
// layer unparks a coro on a CPU clock to "dispatch" it.
type Coro struct {
	name     string
	id       uint64
	eng      *Engine
	fn       func(*Ctx)
	ctx      *Ctx
	clock    *Clock
	runnable bool
	done     bool
	// fresh marks an activation: the coroutine was unparked and has not
	// been dispatched since. Only activation dispatches are traced and
	// counted in Steps — later re-slices of the same run (grid-boundary
	// yields) are engine pacing, invisible to the simulated kernel.
	fresh bool

	// next runs the coroutine until it yields or finishes, suspend
	// (called only from inside it) switches back to next's caller, and
	// stop releases it: iter.Pull's halves of one runtime coroutine,
	// created at the first dispatch.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()
}

// Name reports the coro's name.
func (co *Coro) Name() string { return co.name }

// Done reports whether the coro's body has returned.
func (co *Coro) Done() bool { return co.done }

// Runnable reports whether the coro is currently eligible to run.
func (co *Coro) Runnable() bool { return co.runnable && !co.done }

// Clock returns the clock the coro is (or was last) dispatched on.
func (co *Coro) Clock() *Clock { return co.clock }

// Ctx is the handle a running coroutine uses to interact with the engine.
// A Ctx is only valid inside its own coroutine.
type Ctx struct {
	co      *Coro
	horizon uint64
}

// event is a scheduled callback. Events run in the engine's own context
// (never inside a coroutine); they typically raise interrupts or unpark
// coros.
type event struct {
	at  uint64
	seq uint64
	fn  func()
}

// Engine owns the coroutines, clocks and pending events of a machine.
type Engine struct {
	coros  []*Coro  // live (not finished) coroutines, creation order
	runq   coroHeap // runnable coroutines keyed by (clock, id)
	events eventHeap
	// seq numbers coroutines and events in creation order, whether the
	// host creates them between Run calls or simulated code does while
	// one runs: a coroutine's id and an event's seq break ties at equal
	// virtual times.
	seq     uint64
	current *Coro
	now     uint64 // time of the most recently scheduled entity
	until   uint64 // bound of the run call in progress
	steps   uint64 // raw scheduling decisions (maxSteps guard)
	sched   uint64 // schedule points: event executions + activations
	schedAt uint64 // latest schedule-point time seen so far (monotone)
	// maxSteps bounds engine scheduling decisions as a runaway guard;
	// the cluster arms it from MaxSteps at every Run. Zero means no
	// limit.
	maxSteps uint64

	// cluster drives the engine.
	cluster *Cluster
	// evFree pools executed event records for reuse.
	evFree []*event
}

// Now reports the engine's current virtual time. From inside a running
// coroutine this is that coroutine's own clock — the engine-level `now`
// only advances at schedule points, so the running entity's clock is
// the honest current time (and, unlike the schedule-point clock, it
// does not depend on how preemption sliced other entities' runs).
// Outside any coroutine it is the time of the most recent schedule
// point, a global lower bound: no future activity occurs before it.
func (e *Engine) Now() uint64 {
	if cur := e.current; cur != nil {
		return cur.clock.now
	}
	return e.now
}

// Steps reports the number of schedule points so far: event executions
// plus coroutine activations. Unlike the raw decision count (which
// includes horizon-preemption re-slices and is what the step guard
// bounds), this is a property of the simulated schedule, not of how
// the host sliced it.
func (e *Engine) Steps() uint64 { return e.sched }

// nextTime reports the virtual time of the engine's next pending entity
// (runnable coroutine or event), or MaxUint64 when quiescent. Only
// called between Run calls, when no coroutine is executing.
func (e *Engine) nextTime() uint64 {
	_, t := e.peekRunnable()
	if len(e.events) > 0 && e.events[0].at < t {
		t = e.events[0].at
	}
	return t
}

// NewCoro creates a parked coroutine that will execute fn when first
// dispatched. The body must only interact with the engine through ctx.
func (e *Engine) NewCoro(name string, fn func(*Ctx)) *Coro {
	e.seq++
	co := &Coro{name: name, id: e.seq, eng: e, fn: fn}
	co.ctx = &Ctx{co: co}
	e.coros = append(e.coros, co)
	return co
}

// UnparkOn makes co runnable on the given clock. It is the dispatch
// primitive: the kernel layer calls it when placing a thread on a CPU.
// Calling it for an already-runnable or finished coro panics, as that
// indicates a kernel scheduling bug.
func (e *Engine) UnparkOn(co *Coro, clock *Clock) {
	if co.eng != e {
		panic(fmt.Sprintf("sim: unpark of coro %q on a foreign engine", co.name))
	}
	if co.done {
		panic(fmt.Sprintf("sim: unpark of finished coro %q", co.name))
	}
	if co.runnable {
		panic(fmt.Sprintf("sim: unpark of runnable coro %q", co.name))
	}
	if clock == nil {
		panic("sim: unpark with nil clock")
	}
	co.clock = clock
	co.runnable = true
	co.fresh = true
	e.runq.push(coroEntry{at: clock.now, co: co})
	// A newly runnable coroutine may be more urgent than the currently
	// executing one: shrink the current horizon so it yields at its next
	// charge point.
	if cur := e.current; cur != nil && cur != co && clock.now < cur.ctx.horizon {
		cur.ctx.horizon = clock.now
	}
}

// ScheduleAt registers fn to run at virtual time t in engine context.
// Events at equal times run in registration order.
func (e *Engine) ScheduleAt(t uint64, fn func()) {
	e.DeliverAt(t, fn)
	// The new event may precede the running coroutine's current horizon.
	if cur := e.current; cur != nil && t < cur.ctx.horizon {
		cur.ctx.horizon = t
	}
}

// DeliverAt registers fn to run at virtual time t, as ScheduleAt does,
// for an interconnect delivery: a fiber message or an Ethernet frame
// that reaches its destination after a transit time. Unlike ScheduleAt
// it never shrinks the sending coroutine's slice horizon. The sender
// keeps running while its message is in flight, so its yield and
// interrupt-poll points, and everything downstream of them, do not
// move because it sent.
func (e *Engine) DeliverAt(t uint64, fn func()) {
	ev := e.newEvent()
	e.seq++
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.events.push(ev)
}

// ScheduleAfter registers fn to run d cycles after the engine's current
// global time.
func (e *Engine) ScheduleAfter(d uint64, fn func()) {
	e.ScheduleAt(e.now+d, fn)
}

// newEvent draws an event record from the pool of executed ones.
func (e *Engine) newEvent() *event {
	if n := len(e.evFree); n > 0 {
		ev := e.evFree[n-1]
		e.evFree = e.evFree[:n-1]
		return ev
	}
	return &event{}
}

// freeEvent returns an executed event to the pool right after it
// fires.
func (e *Engine) freeEvent(ev *event) {
	ev.fn = nil
	//ckvet:allow poolpath the pool's own refill point; drained by newEvent
	e.evFree = append(e.evFree, ev)
}

// ErrMaxSteps reports that Run stopped because the step guard tripped.
var ErrMaxSteps = errors.New("sim: exceeded MaxSteps scheduling decisions")

// gridQuantum is the slice grid: a dispatched coroutine runs until its
// clock crosses the next multiple of gridQuantum (or it parks, or its
// horizon is shrunk by an unpark or event it issued itself). Slice
// boundaries are therefore intrinsic to each coroutine's own charge
// trajectory — never derived from which other entities happen to share
// the engine: the engine merely merges intrinsic slices, events and
// activations by (time, id). The grid also bounds how long a
// non-yielding loop can hold the engine, keeping it responsive to the
// step guard.
const gridQuantum = 1 << 16

// run executes the engine until no coroutine is runnable and no event
// is pending, or until the next entity's time exceeds until. It returns
// ErrMaxSteps if the step guard trips. Only the cluster calls it, once
// per Run.
func (e *Engine) run(until uint64) error {
	e.until = until
	for {
		if e.maxSteps != 0 && e.steps >= e.maxSteps {
			return ErrMaxSteps
		}
		e.steps++

		co, coTime := e.peekRunnable()
		evTime := uint64(math.MaxUint64)
		if len(e.events) > 0 {
			evTime = e.events[0].at
		}

		switch {
		case co == nil && evTime == math.MaxUint64:
			return nil
		case evTime <= coTime:
			if evTime > until {
				return nil
			}
			e.runEvent(e.events.pop())
			// Batched drain: run consecutive due events without
			// re-entering the full scheduling decision, for as long as
			// the cheap run-queue bound proves the next event still
			// precedes every runnable coroutine. Stale heap keys only
			// under-estimate a clock (clocks move forward), so the
			// bound is conservative: a miss bounces to the full
			// decision above, never reorders.
			for len(e.events) > 0 {
				next := e.events[0]
				if next.at > until {
					break
				}
				if len(e.runq) > 0 && next.at > e.runq[0].at {
					break
				}
				if e.maxSteps != 0 && e.steps >= e.maxSteps {
					return ErrMaxSteps
				}
				e.steps++
				e.runEvent(e.events.pop())
			}
		default:
			if coTime > until {
				return nil
			}
			e.runq.pop()
			horizon := e.horizonFor(coTime)
			e.now = coTime
			e.logDispatch(co, coTime)
			e.resumeCoro(co, horizon)
		}
	}
}

// runEvent executes one due event and recycles its record.
func (e *Engine) runEvent(ev *event) {
	e.now = ev.at
	e.sched++
	if ev.at > e.schedAt {
		e.schedAt = ev.at
	}
	ev.fn()
	e.freeEvent(ev)
}

// peekRunnable returns the runnable coroutine with the smallest
// (clock, id) key without removing it, or (nil, MaxUint64) if none.
// Stale heap keys — a queued coroutine whose clock moved because it
// shares the clock with another — are repaired lazily here, so the
// reported minimum is always computed over live clock values, exactly
// as the original linear scan did.
func (e *Engine) peekRunnable() (*Coro, uint64) {
	for len(e.runq) > 0 {
		ent := e.runq[0]
		co := ent.co
		if co.done || !co.runnable {
			// Defensive: the engine never leaves such entries behind,
			// but discarding keeps the heap an over-approximation.
			e.runq.pop()
			continue
		}
		if now := co.clock.now; now != ent.at {
			// Clocks only move forward; re-key at the live value.
			e.runq.pop()
			e.runq.push(coroEntry{at: now, co: co})
			continue
		}
		return co, ent.at
	}
	return nil, math.MaxUint64
}

// horizonFor computes how far a coroutine dispatched at coTime may run
// before yielding: the next absolute gridQuantum boundary. The horizon
// deliberately ignores other entities' clocks — capping a slice by a
// neighbour's position would make the yield point (and with it the
// interleaving of side effects at overlapping clock ranges) depend on
// which entities share the engine, not on the coroutine's own code.
// Causality does not need entity capping: any interaction the running
// coroutine initiates (an unpark, a scheduled event) shrinks its own
// horizon at the interaction point, which is intrinsic to its code.
func (e *Engine) horizonFor(coTime uint64) uint64 {
	return coTime - coTime%gridQuantum + gridQuantum
}

// pickSelf evaluates the next scheduling decision from inside the
// yielding coroutine co. If that decision resumes co itself it performs
// the dispatch bookkeeping (step count, queue pop, virtual time, trace)
// and returns co's new horizon, so co keeps running without a switch.
// For any other decision — another coroutine, a due event, quiescence,
// the run bound, the step guard — it mutates nothing and reports !ok,
// and co switches back to run, which re-evaluates identically.
func (e *Engine) pickSelf(co *Coro) (horizon uint64, ok bool) {
	if e.maxSteps != 0 && e.steps >= e.maxSteps {
		return 0, false
	}
	next, coTime := e.peekRunnable()
	if next != co || coTime > e.until {
		return 0, false
	}
	if len(e.events) > 0 && e.events[0].at <= coTime {
		return 0, false
	}
	e.steps++
	e.runq.pop()
	e.now = coTime
	e.logDispatch(co, coTime)
	return e.horizonFor(coTime), true
}

// logDispatch accounts one dispatch decision. An activation (first
// dispatch since unpark) is a schedule point: it is counted, traced,
// and advances the schedule-point clock. Re-slices are engine pacing,
// not schedule points.
func (e *Engine) logDispatch(co *Coro, coTime uint64) {
	if !co.fresh {
		return
	}
	co.fresh = false
	e.sched++
	if coTime > e.schedAt {
		e.schedAt = coTime
	}
	if tr := e.cluster.trace; tr != nil {
		tr(co.name, coTime)
	}
}

// resumeCoro runs co until it yields back to run or finishes. Exactly
// one coroutine of the engine runs at a time, and run waits for it, so
// engine state needs no locking.
func (e *Engine) resumeCoro(co *Coro, horizon uint64) {
	e.current = co
	co.ctx.horizon = horizon
	if co.next == nil {
		co.next, co.stop = iter.Pull(func(suspend func(struct{}) bool) {
			co.suspend = suspend
			co.body()
		})
	}
	co.next()
	e.current = nil
}

// body runs the coroutine's function and retires the coroutine however
// the function ends: before control leaves, the coroutine is marked done
// and dropped from the engine's live set, so long-running simulations do
// not accumulate finished contexts and Close never waits on it. The
// release signal that unwinds a coroutine released by Cluster.Close
// stops here. Any other panic is raised again as a *Panic that carries
// the stack of the panic site: iter.Pull recovers it and raises it once
// more in whoever resumed the coroutine, where that stack is gone.
func (co *Coro) body() {
	defer func() {
		co.done = true
		co.runnable = false
		co.eng.removeCoro(co)
		if r := recover(); r != nil && r != any(releaseSignal{}) {
			panic(&Panic{Value: r, Coro: co.name, At: co.clock.now, Stack: string(debug.Stack())})
		}
	}()
	co.fn(co.ctx)
}

// Panic is a coroutine's panic on its way to the caller of Cluster.Run
// (or of Cluster.Close, if the coroutine panicked while being released):
// the panic value, the coroutine's name, its clock at the panic and the
// stack captured at the panic site.
type Panic struct {
	Value any
	Coro  string
	At    uint64
	Stack string
}

// Error reports the panic value first, then where it happened, then the
// whole stack, so a *Panic that crashes the process still prints the
// original value and the panicking frame.
func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\ncoroutine %q panicked at cycle %d:\n%s", p.Value, p.Coro, p.At, p.Stack)
}

// releaseSignal is the panic value that unwinds a coroutine released by
// Cluster.Close.
type releaseSignal struct{}

// release unwinds every started, unfinished coroutine of the engine,
// one at a time on the caller's goroutine. stop wakes each one inside
// yield, which panics with the release signal, and body retires it on
// the way out. Never-started coroutines have nothing to unwind.
func (e *Engine) release() {
	for i := 0; i < len(e.coros); {
		co := e.coros[i]
		if co.stop == nil {
			i++
			continue
		}
		e.current = co
		co.stop()
		e.current = nil
	}
}

// removeCoro drops a finished coroutine from the live set, preserving
// creation order. Called from the finishing coroutine while its resumer
// waits for it, so no synchronization is needed.
func (e *Engine) removeCoro(co *Coro) {
	for i, c := range e.coros {
		if c == co {
			copy(e.coros[i:], e.coros[i+1:])
			e.coros[len(e.coros)-1] = nil
			e.coros = e.coros[:len(e.coros)-1]
			return
		}
	}
}

// yield suspends the calling coroutine and returns control to the
// scheduler; the coroutine resumes (with a fresh horizon) when next
// scheduled. If the next scheduling decision resumes the yielder itself
// it simply keeps running; every other decision is run's, so the
// yielder switches back to it.
//
// On a closed cluster yield panics with the release signal before it
// touches the run queue: a released coroutine whose deferred code
// charges on the way out keeps unwinding.
func (ctx *Ctx) yield() {
	co := ctx.co
	e := co.eng
	if e.cluster.closed {
		panic(releaseSignal{})
	}
	if co.runnable {
		e.runq.push(coroEntry{at: co.clock.now, co: co})
	}
	if horizon, ok := e.pickSelf(co); ok {
		ctx.horizon = horizon
		return
	}
	co.suspend(struct{}{})
	if e.cluster.closed {
		panic(releaseSignal{})
	}
}

// Advance charges cycles cycles to the coroutine's current clock, yielding
// to the engine if another entity is now more urgent. This is the
// fundamental cost-charging primitive: every simulated action calls it.
func (ctx *Ctx) Advance(cycles uint64) {
	c := ctx.co.clock
	c.now += cycles
	if c.now > ctx.horizon {
		ctx.yield()
	}
}

// Now reports the coroutine's current clock time.
func (ctx *Ctx) Now() uint64 { return ctx.co.clock.now }

// Coro returns the coroutine the context belongs to.
func (ctx *Ctx) Coro() *Coro { return ctx.co }

// Engine returns the owning engine.
func (ctx *Ctx) Engine() *Engine { return ctx.co.eng }

// Released reports whether the coroutine is being released by
// Cluster.Close: true only in deferred code running while Close unwinds
// it.
func (ctx *Ctx) Released() bool { return ctx.co.eng.cluster.closed }

// Park suspends the calling coroutine until another entity unparks it.
// On resume, the coroutine's clock (which may have been rebound by the
// unparker) is advanced to at least the engine's global time, modeling a
// CPU that was idle until the wakeup.
func (ctx *Ctx) Park() {
	co := ctx.co
	co.runnable = false
	ctx.yield()
	co.clock.AdvanceTo(co.eng.now)
}

// Reschedule forces a yield without charging time, letting equally urgent
// entities interleave at a known point.
func (ctx *Ctx) Reschedule() { ctx.yield() }

// coroEntry is a run-queue element; at is the coroutine's clock value
// when queued (repaired lazily if the clock moves while queued).
type coroEntry struct {
	at uint64
	co *Coro
}

// coroHeap is a min-heap of runnable coroutines ordered by (at, id) —
// the same "smallest clock, creation order breaks ties" rule the
// original linear scan implemented.
type coroHeap []coroEntry

func coroLess(a, b coroEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.co.id < b.co.id
}

func (h *coroHeap) push(ent coroEntry) {
	*h = append(*h, ent)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if coroLess((*h)[i], (*h)[p]) {
			(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
			i = p
		} else {
			break
		}
	}
}

func (h *coroHeap) pop() coroEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = coroEntry{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && coroLess(old[l], old[m]) {
			m = l
		}
		if r < n && coroLess(old[r], old[m]) {
			m = r
		}
		if m == i {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}

// eventHeap is a min-heap of events ordered by (at, seq): at equal
// times, events run in registration order.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if less((*h)[i], (*h)[p]) {
			(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
			i = p
		} else {
			break
		}
	}
}

func (h *eventHeap) pop() *event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && less(old[l], old[m]) {
			m = l
		}
		if r < n && less(old[r], old[m]) {
			m = r
		}
		if m == i {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}

func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
