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
// simulated machine, every MPM included, and drives it (Run, Close).
//
// Time is measured in processor cycles. Clocks belong to simulated CPUs;
// a coroutine advances whichever clock it is currently dispatched on, so a
// thread migrating between CPUs naturally accumulates time on each. It
// charges with Ctx.Add, one add and one compare against its attention
// limit, which is 0 whenever the layer above has more to do than add;
// Ctx.Advance adds and yields once the clock passes the slice horizon.
//
// Host-side scheduling is O(log n) in the number of pending entities:
// runnable coroutines and pending events share one min-heap of value
// entries keyed by (time, key), a monotone event stream (Stream) keeps
// only its earliest pending occurrence there, and finished coroutines
// are dropped from the engine entirely. Each coroutine is a Go runtime
// coroutine (iter.Pull): the engine resumes it with a direct stack
// switch, and it switches straight back when it yields, with no trip
// through the Go scheduler. All of this changes only host data
// structures; the scheduling decisions themselves — which coroutine
// runs at which virtual time — are bit-identical to the original
// linear-scan engine (the determinism golden in internal/exp pins
// this). iter.Pull needs Go 1.23, hence this file's build constraint.
package sim

import (
	"errors"
	"fmt"
	"iter"
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
	// ctx is the coroutine's handle, kept inside it: the clock the
	// coroutine runs on lives there, one hop from both.
	ctx      Ctx
	name     string
	nameID   int
	id       uint64
	eng      *Engine
	fn       func(*Ctx)
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

// NameID reports the index of the coro's name in its engine's name
// table (Engine.NameID): every coroutine of the engine with this name
// has this index.
func (co *Coro) NameID() int { return co.nameID }

// Done reports whether the coro's body has returned.
func (co *Coro) Done() bool { return co.done }

// Runnable reports whether the coro is currently eligible to run.
func (co *Coro) Runnable() bool { return co.runnable && !co.done }

// Clock returns the clock the coro is (or was last) dispatched on.
func (co *Coro) Clock() *Clock { return co.ctx.clock }

// Ctx is the handle a running coroutine uses to interact with the engine.
// A Ctx is only valid inside its own coroutine.
//
// Beside the horizon, where the coroutine yields, a Ctx keeps an
// attention limit: the clock value from which Add reports true, so
// that the layer above can do a charge's bookkeeping in one compare
// and look at its own state only when Add says so. The limit is at
// most horizon+1, so Add reports true whenever Advance would yield. It
// moves in four ways: resuming the coroutine (Run's dispatch) drops it
// to 0; every horizon shrink lowers it with the horizon; Engine.Look
// drops the running coroutine's to 0; Rearm raises it to horizon+1.
type Ctx struct {
	clock   *Clock
	limit   uint64
	horizon uint64
	co      *Coro
}

// Engine owns the coroutines, clocks and pending events of a machine,
// and drives the simulation: Run executes it, Close ends it. The zero
// value is an empty engine, ready to use.
type Engine struct {
	coros []*Coro // live (not finished) coroutines, creation order
	// queue holds the runnable coroutines, the pending events and each
	// stream's earliest pending occurrence, ordered by (at, key).
	queue queue
	// seq numbers coroutines and events in creation order, whether the
	// host creates them between Run calls or simulated code does while
	// one runs: a coroutine's id and an event's seq break ties at equal
	// virtual times.
	seq     uint64
	current *Coro
	now     uint64 // time of the most recently scheduled entity
	steps   uint64 // raw scheduling decisions (MaxSteps guard)
	sched   uint64 // schedule points: event executions + activations
	schedAt uint64 // latest schedule-point time seen so far (monotone)

	// closed is set by Close: the simulation has ended and every
	// started coroutine has been released.
	closed bool
	// trace, when non-nil, receives every activation in schedule order.
	trace func(name string, id int, at uint64)
	// names interns coroutine names: a name's index is its position in
	// order of first use (NameID).
	names map[string]int

	// MaxSteps bounds total scheduling decisions, a runaway guard.
	// Zero means no limit.
	MaxSteps uint64
}

// Now reports the engine's current virtual time. From inside a running
// coroutine this is that coroutine's own clock — the engine-level `now`
// only advances at schedule points, so the running entity's clock is
// the honest current time (and, unlike the schedule-point clock, it
// does not depend on how preemption sliced other entities' runs).
// Outside any coroutine it is the time of the most recently scheduled
// entity, a global lower bound: no future activity occurs before it.
func (e *Engine) Now() uint64 {
	if cur := e.current; cur != nil {
		return cur.ctx.clock.now
	}
	return e.now
}

// SchedTime reports the engine's global virtual time: the latest
// schedule point it has executed. Unlike Now it never counts a
// re-slice, so it is a property of the simulated schedule alone.
func (e *Engine) SchedTime() uint64 { return e.schedAt }

// Steps reports the number of schedule points so far: event executions
// plus coroutine activations. Unlike the raw decision count (which
// includes horizon-preemption re-slices and is what the step guard
// bounds), this is a property of the simulated schedule, not of how
// the host sliced it.
func (e *Engine) Steps() uint64 { return e.sched }

// SetTrace installs the dispatch-trace hook: fn is called with the
// coroutine's name, the name's index (Coro.NameID) and the virtual
// dispatch time on every activation — a dispatch of a coroutine that
// was unparked since it last ran — in schedule order. Preemption
// re-slices are not traced: activations are a property of the
// simulated schedule itself, not of how the host sliced it. TraceHash
// fingerprints the resulting trace.
func (e *Engine) SetTrace(fn func(name string, id int, at uint64)) { e.trace = fn }

// NameID returns the index of a coroutine name, interning a name the
// engine has not seen. Indices are dense, numbered from 0 in order of
// first use, so an observer that keeps per-name state can hold it in
// a slice indexed by the name's index instead of a map keyed by it.
func (e *Engine) NameID(name string) int {
	if id, ok := e.names[name]; ok {
		return id
	}
	if e.names == nil {
		e.names = make(map[string]int)
	}
	id := len(e.names)
	e.names[name] = id
	return id
}

// NewCoro creates a parked coroutine that will execute fn when first
// dispatched. The body must only interact with the engine through ctx.
func (e *Engine) NewCoro(name string, fn func(*Ctx)) *Coro {
	e.seq++
	co := &Coro{name: name, nameID: e.NameID(name), id: e.seq, eng: e, fn: fn}
	co.ctx.co = co
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
	co.ctx.clock = clock
	co.runnable = true
	co.fresh = true
	e.queue.push(co.entry())
	// A newly runnable coroutine may be more urgent than the currently
	// executing one: shrink the current horizon so it yields at its next
	// charge point.
	if cur := e.current; cur != nil && cur != co {
		cur.ctx.shrink(clock.now)
	}
}

// ScheduleAt registers fn to run at virtual time t in engine context
// (never inside a coroutine); an event typically raises an interrupt
// or unparks a coro. Events at equal times run in registration order.
func (e *Engine) ScheduleAt(t uint64, fn func()) {
	e.DeliverAt(t, fn)
	// The new event may precede the running coroutine's current horizon.
	if cur := e.current; cur != nil {
		cur.ctx.shrink(t)
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
	e.seq++
	e.queue.push(entry{at: t, key: e.seq, fn: fn})
}

// ErrMaxSteps reports that Run stopped because the step guard tripped.
var ErrMaxSteps = errors.New("sim: exceeded MaxSteps scheduling decisions")

// gridQuantum is the slice grid: a dispatched coroutine runs until its
// clock crosses the next multiple of gridQuantum (or it parks, or its
// horizon is shrunk by an unpark or event it issued itself). Slice
// boundaries are therefore intrinsic to each coroutine's own charge
// trajectory — never derived from which other entities happen to share
// the engine: the engine merely merges intrinsic slices, events and
// activations by (time, key). The grid also bounds how long a
// non-yielding loop can hold the engine, keeping it responsive to the
// step guard.
const gridQuantum = 1 << 16

// Run executes the simulation until no coroutine is runnable and no
// event is pending, or until the next entity's time exceeds until (pass
// math.MaxUint64 for no bound). It returns ErrMaxSteps if the step
// guard trips. A coroutine's panic reaches Run's caller as a *Panic;
// the engine is then only fit for Close.
func (e *Engine) Run(until uint64) error {
	if e.closed {
		panic("sim: Run after Close")
	}
	// A Run with nothing due makes no scheduling decision, so it leaves
	// the step guard's count alone.
	if ent, ok := e.peek(); !ok || ent.at > until {
		return nil
	}
	for {
		if e.MaxSteps != 0 && e.steps >= e.MaxSteps {
			return ErrMaxSteps
		}
		e.steps++
		ent, ok := e.peek()
		if !ok || ent.at > until {
			return nil
		}
		e.queue.pop()
		e.now = ent.at
		if co := ent.co; co != nil {
			horizon := e.horizonFor(ent.at)
			e.logDispatch(co, ent.at)
			e.resumeCoro(co, horizon)
			continue
		}
		e.sched++
		if ent.at > e.schedAt {
			e.schedAt = ent.at
		}
		ent.fn()
	}
}

// peek returns the queue's first entry without removing it, or !ok when
// the queue is empty. A queued coroutine whose clock moved because it
// shares the clock with another holds a stale key; peek re-keys such an
// entry at the live clock value once it reaches the top, so the first
// entry is always the minimum over live clock values, exactly as the
// original linear scan computed it. Clocks only move forward, so a
// stale key only under-estimates: an entry below the top never needs
// repair to decide the top.
func (e *Engine) peek() (entry, bool) {
	for len(e.queue) > 0 {
		ent := e.queue[0]
		co := ent.co
		if co == nil {
			return ent, true
		}
		if co.done || !co.runnable {
			// Defensive: the engine never leaves such entries behind,
			// but discarding keeps the queue an over-approximation.
			e.queue.pop()
			continue
		}
		if now := co.ctx.clock.now; now != ent.at {
			ent.at = now
			e.queue.sink(ent)
			continue
		}
		return ent, true
	}
	return entry{}, false
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
	if tr := e.trace; tr != nil {
		tr(co.name, co.nameID, coTime)
	}
}

// resumeCoro runs co until it yields back to Run or finishes. Exactly
// one coroutine of the engine runs at a time, and Run waits for it, so
// engine state needs no locking.
func (e *Engine) resumeCoro(co *Coro, horizon uint64) {
	e.current = co
	co.ctx.resume(horizon)
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
// release signal that unwinds a coroutine released by Close stops
// here. Any other panic is raised again as a *Panic that carries
// the stack of the panic site: iter.Pull recovers it and raises it once
// more in whoever resumed the coroutine, where that stack is gone.
func (co *Coro) body() {
	defer func() {
		co.done = true
		co.runnable = false
		co.eng.removeCoro(co)
		if r := recover(); r != nil && r != any(releaseSignal{}) {
			panic(&Panic{Value: r, Coro: co.name, At: co.ctx.clock.now, Stack: string(debug.Stack())})
		}
	}()
	co.fn(&co.ctx)
}

// Panic is a coroutine's panic on its way to the caller of Engine.Run
// (or of Engine.Close, if the coroutine panicked while being released):
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
// Close.
type releaseSignal struct{}

// Close ends the simulation. It releases every started, unfinished
// coroutine, one at a time on the caller's goroutine: stop wakes each
// one inside yield, which panics with the release signal, so it unwinds
// its body without running any more simulated code, and body retires it
// on the way out. Never-started coroutines have nothing to unwind.
// Until then a parked coroutine is a suspended goroutine that keeps the
// whole simulation reachable. Close must be called between Run calls
// (also after Run panicked), never from a coroutine or an event. A
// second Close is a no-op; Run after Close panics.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
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

// yield suspends the calling coroutine and switches back to Run; the
// coroutine resumes (with a fresh horizon) when next scheduled. A
// runnable yielder is queued first, so Run's next decision may be to
// resume it at once.
//
// On a closed engine yield panics with the release signal before it
// touches the queue: a released coroutine whose deferred code
// charges on the way out keeps unwinding.
func (ctx *Ctx) yield() {
	co := ctx.co
	e := co.eng
	if e.closed {
		panic(releaseSignal{})
	}
	if co.runnable {
		e.queue.push(co.entry())
	}
	co.suspend(struct{}{})
	if e.closed {
		panic(releaseSignal{})
	}
}

// resume starts a slice that runs to horizon. Whatever happened while
// the coroutine was suspended, its next Add reports true.
func (ctx *Ctx) resume(horizon uint64) {
	ctx.horizon = horizon
	ctx.limit = 0
}

// shrink lowers the horizon to t if t comes first, and the attention
// limit with it.
func (ctx *Ctx) shrink(t uint64) {
	if t < ctx.horizon {
		ctx.horizon = t
		ctx.limit = min(ctx.limit, t+1)
	}
}

// Advance charges cycles cycles to the coroutine's current clock, yielding
// to the engine if the clock passed the horizon: another entity may now be
// more urgent. Advance(0) yields exactly when an earlier Add left the
// clock past the horizon.
func (ctx *Ctx) Advance(cycles uint64) {
	c := ctx.clock
	c.now += cycles
	if c.now > ctx.horizon {
		ctx.yield()
	}
}

// Add charges cycles cycles to the coroutine's current clock and reports
// whether the clock reached the attention limit. It never yields: when
// it reports true, the caller does its own bookkeeping and calls
// Advance(0), then Rearm once nothing is left for a charge to do but
// add. A caller that charges through Add does every charge's work in
// one add and one compare until then.
func (ctx *Ctx) Add(cycles uint64) bool {
	c := ctx.clock
	c.now += cycles
	return c.now >= ctx.limit
}

// Rearm raises the attention limit to the clock value just past the
// horizon: from now on Add reports true only when Advance would yield,
// or after the limit is dropped again.
func (ctx *Ctx) Rearm() { ctx.limit = ctx.horizon + 1 }

// Look drops the running coroutine's attention limit to 0, so its next
// Add reports true, whatever its clock. A layer that keeps state a
// charge must look at calls it when it changes that state: the running
// coroutine sees the change at its next charge, and any other
// coroutine sees it when it resumes, which drops its limit anyway.
func (e *Engine) Look() {
	if cur := e.current; cur != nil {
		cur.ctx.limit = 0
	}
}

// Now reports the coroutine's current clock time.
func (ctx *Ctx) Now() uint64 { return ctx.clock.now }

// Coro returns the coroutine the context belongs to.
func (ctx *Ctx) Coro() *Coro { return ctx.co }

// Engine returns the owning engine.
func (ctx *Ctx) Engine() *Engine { return ctx.co.eng }

// Released reports whether the coroutine is being released by
// Engine.Close: true only in deferred code running while Close unwinds
// it.
func (ctx *Ctx) Released() bool { return ctx.co.eng.closed }

// Park suspends the calling coroutine until another entity unparks it.
// On resume, the coroutine's clock (which may have been rebound by the
// unparker) is advanced to at least the engine's global time, modeling a
// CPU that was idle until the wakeup.
func (ctx *Ctx) Park() {
	co := ctx.co
	co.runnable = false
	ctx.yield()
	ctx.clock.AdvanceTo(co.eng.now)
}

// Reschedule forces a yield without charging time, letting equally urgent
// entities interleave at a known point.
func (ctx *Ctx) Reschedule() { ctx.yield() }

// entry is one element of the engine's queue: a runnable coroutine
// (co set) or a pending event (fn set), due at virtual time at. An
// event's key is its creation seq; a coroutine's is its id with
// coroBit set. Ordering by (at, key) therefore runs, at equal times,
// every event before every coroutine, events in registration order and
// coroutines in creation order. A coroutine entry's at is its clock
// value when queued, repaired by peek if the clock moved since.
type entry struct {
	at, key uint64
	co      *Coro
	fn      func()
}

// coroBit marks a coroutine's queue key.
const coroBit = 1 << 63

// entry returns the coroutine's queue entry at its live clock value.
func (co *Coro) entry() entry {
	return entry{at: co.ctx.clock.now, key: coroBit | co.id, co: co}
}

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// queue is a binary min-heap of entries held by value, so scheduling
// an event or a coroutine allocates nothing once the heap has grown to
// the simulation's working set.
type queue []entry

func (h *queue) push(ent entry) {
	*h = append(*h, ent)
	h.up(len(*h)-1, ent)
}

// pop removes the first entry. The vacated slot is cleared, so the
// retained capacity holds no closure or coroutine alive.
func (h *queue) pop() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	*h = q[:n]
	if n > 0 {
		h.sink(last)
	}
}

// sink puts ent in the first entry's place: it walks that hole down to
// a leaf along the smaller children, then sifts ent up from there. The
// entry sunk by pop is the last leaf, which belongs near the bottom, so
// this costs about one comparison per level, not two.
func (h queue) sink(ent entry) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		h[i] = h[c]
		i = c
	}
	h.up(i, ent)
}

// up sifts ent up from slot i to its place.
func (h queue) up(i int, ent entry) {
	for i > 0 {
		p := (i - 1) / 2
		if !ent.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}
