// Package sim provides a deterministic discrete-virtual-time execution
// engine for the V++ Cache Kernel reproduction.
//
// An Engine multiplexes many simulated execution contexts (Coros) over a
// single OS thread of control: exactly one of its coroutines runs at any
// instant, and the engine always resumes the runnable coroutine whose
// processor clock is furthest behind. This yields a deterministic,
// serializable interleaving of the simulated multiprocessor without any
// locking in the simulated kernel code, mirroring how the real Cache
// Kernel limited parallelism to one MPM. Every engine is one shard of a
// Cluster (cluster.go), which drives it; a one-shard cluster is the
// whole simulation on one engine.
//
// Time is measured in processor cycles. Clocks belong to simulated CPUs;
// a coroutine advances whichever clock it is currently dispatched on, so a
// thread migrating between CPUs naturally accumulates time on each.
//
// Host-side scheduling is O(log n) in the number of runnable coroutines:
// the ready set is a min-heap keyed by (clock, id), finished coroutines
// are dropped from the engine entirely, and a yielding coroutine whose
// scheduling decision resumes another coroutine hands control to it
// directly instead of round-tripping through the engine goroutine. All
// of this changes only host data structures; the scheduling decisions
// themselves — which coroutine runs at which virtual time — are
// bit-identical to the original linear-scan engine (the determinism
// golden in internal/exp pins this).
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Clock is a processor-local virtual clock measured in cycles.
// The hardware layer creates one Clock per simulated CPU.
type Clock struct {
	name string
	now  uint64
	san  sanClockState // shard-ownership tag; empty unless built with -tags cksan
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
	resume   chan uint64 // horizon values; closed never
	clock    *Clock
	runnable bool
	started  bool
	done     bool
	// fresh marks an activation: the coroutine was unparked and has not
	// been dispatched since. Only activation dispatches are traced and
	// counted in Steps — later re-slices of the same run (grid-boundary
	// yields) are engine pacing, invisible to the simulated kernel.
	fresh bool

	// band/gid order this coro's dispatches against entities on other
	// shards at equal virtual times (see event.band): band 0 carries
	// the construction-time id, band 1 a barrier-assigned global rank.
	// Only the barrier merge of a logging cluster reads them.
	band uint8
	gid  uint64
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
//
// band orders events across shard timelines at equal virtual times
// without a shared runtime counter (see cluster.go): band 0 is
// construction time (ids from the cluster-wide constructor counter —
// the serial creation order, byte for byte), band 1 is runtime
// registrations that have been assigned a global rank at an epoch
// barrier, band 2 is this-epoch shard-local registrations not yet
// ranked. On a one-shard cluster runtime events stay in band 2, whose
// shard-local counter is itself the serial registration order.
type event struct {
	at   uint64
	seq  uint64
	band uint8
	fn   func()
}

// Engine owns the coroutines, clocks and pending events of one shard.
type Engine struct {
	coros   []*Coro  // live (not finished) coroutines, creation order
	runq    coroHeap // runnable coroutines keyed by (clock, id)
	events  eventHeap
	seq     uint64
	yieldCh chan *Coro
	current *Coro
	now     uint64 // time of the most recently scheduled entity
	until   uint64 // bound of the run call in progress
	steps   uint64 // raw scheduling decisions (maxSteps guard)
	sched   uint64 // schedule points: event executions + activations
	schedAt uint64 // latest schedule-point time seen so far (monotone)
	// maxSteps bounds engine scheduling decisions as a runaway guard;
	// the cluster arms it from its machine-wide MaxSteps before every
	// epoch. Zero means no limit.
	maxSteps uint64

	// cluster owns the engine; shard is its index there.
	cluster *Cluster
	shard   int
	// logging records every action (event execution, coroutine
	// dispatch) and every runtime registration so the cluster can
	// replay the exact serial global order at each epoch barrier. A
	// one-shard cluster never logs.
	logging bool
	acts    []actRec
	subs    []subRec
	outbox  []crossMsg
	// evFree pools event records when the log does not retain them.
	evFree []*event
	// smallEpochs counts consecutive epochs whose log usage fit under
	// poolRetain; trimPools shrinks over-cap buffers once it reaches
	// poolTrimAfter.
	smallEpochs int
}

// Action and registration log records (logging clusters only).
const (
	actEvent    = 0 // an event execution
	actDispatch = 1 // an activation: first dispatch since unpark
	actReslice  = 2 // a continuation dispatch after a grid-boundary yield

	subCoro  = 0 // a NewCoro whose dispatch rank is assigned at the barrier
	subEvent = 1 // a shard-local ScheduleAt re-ranked at the barrier
	subCross = 2 // a cross-shard message injected at the barrier
)

// actRec is one logged action: an event execution or a dispatch
// decision (activation or re-slice — every decision is logged, because
// the barrier merge replays the serial engine's complete decision
// sequence; only activations are traced). sub is the index into the
// engine's subs log where this action's registrations begin (they end
// where the next action's begin).
type actRec struct {
	at   uint64
	co   *Coro
	ev   *event
	sub  int32
	kind uint8
}

// subRec is one logged runtime registration, ranked in merged global
// order at the epoch barrier.
type subRec struct {
	kind uint8
	co   *Coro
	ev   *event
	msg  int32
}

// crossMsg is a scheduled effect bound for another shard, delivered at
// the epoch barrier with its virtual time intact.
type crossMsg struct {
	at  uint64
	dst *Engine
	fn  func()
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
// bounds), this is a property of the simulated schedule and is
// identical across shard counts.
func (e *Engine) Steps() uint64 { return e.sched }

// SanEnabled reports whether this binary was built with the cksan
// runtime ownership sanitizer (-tags cksan). Tools use it to refuse
// sanitizer runs on unsanitized binaries.
func SanEnabled() bool { return sanEnabled }

// Shard reports the engine's shard index within its cluster.
func (e *Engine) Shard() int { return e.shard }

// nextTime reports the virtual time of the engine's next pending entity
// (runnable coroutine or event), or MaxUint64 when quiescent. Only
// called between epochs, when no coroutine of the engine is executing.
func (e *Engine) nextTime() uint64 {
	_, t := e.peekRunnable()
	if len(e.events) > 0 && e.events[0].at < t {
		t = e.events[0].at
	}
	return t
}

// nextSeq draws the next construction-order id: the cluster-wide
// constructor counter while the cluster is being built (so ids across
// shards reproduce the single-engine creation order exactly), the
// engine-local counter once it runs.
func (e *Engine) nextSeq() uint64 {
	if c := e.cluster; !c.running {
		c.ctorSeq++
		return c.ctorSeq
	}
	e.seq++
	return e.seq
}

// NewCoro creates a parked coroutine that will execute fn when first
// dispatched. The body must only interact with the engine through ctx.
func (e *Engine) NewCoro(name string, fn func(*Ctx)) *Coro {
	id := e.nextSeq()
	co := &Coro{
		name:   name,
		id:     id,
		eng:    e,
		fn:     fn,
		resume: make(chan uint64),
		gid:    id,
	}
	if e.cluster.running {
		// Runtime creation: the global dispatch rank is assigned when
		// the creating action is merged at the barrier.
		co.band = 1
		co.gid = 0
		if e.logging {
			//ckvet:allow poolpath sanctioned growth point of the registration log; reset by resetLogs at the epoch barrier
			e.subs = append(e.subs, subRec{kind: subCoro, co: co})
		}
	}
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
		panic(fmt.Sprintf("sim: unpark of coro %q on a foreign engine (cross-shard dispatch)", co.name))
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
	e.sanAdoptClock(clock)
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
	e.scheduleEvent(t, fn)
	// The new event may precede the running coroutine's current horizon.
	if cur := e.current; cur != nil && t < cur.ctx.horizon {
		cur.ctx.horizon = t
	}
}

// scheduleEvent registers an event without touching the running
// coroutine's horizon.
func (e *Engine) scheduleEvent(t uint64, fn func()) {
	ev := e.newEvent()
	ev.at, ev.fn = t, fn
	if e.cluster.running {
		// Runtime registration: shard-local order now, global rank at
		// the barrier.
		e.seq++
		ev.band, ev.seq = 2, e.seq
		if e.logging {
			//ckvet:allow poolpath sanctioned growth point of the registration log; reset by resetLogs at the epoch barrier
			e.subs = append(e.subs, subRec{kind: subEvent, ev: ev})
		}
	} else {
		ev.band, ev.seq = 0, e.nextSeq()
	}
	e.events.push(ev)
}

// ScheduleAfter registers fn to run d cycles after the engine's current
// global time.
func (e *Engine) ScheduleAfter(d uint64, fn func()) {
	e.ScheduleAt(e.now+d, fn)
}

// ScheduleCrossAt registers fn to run at virtual time t on dst, which
// may be another shard of the same cluster. Same-engine (or
// construction-time) registrations are ordinary events; a runtime
// cross-shard registration is queued in the source shard's outbox and
// injected into dst at the epoch barrier, so t must lie beyond the
// current epoch — which the cluster's latency bound (Cluster.Bound)
// guarantees for every modeled interconnect.
//
// Unlike ScheduleAt, a cross registration never shrinks the sending
// coroutine's slice horizon: the outbox path physically cannot (the
// sender keeps running while the message is in flight), so the direct
// path must not either, or the sender's yield/interrupt-poll points —
// and everything downstream of them — would depend on whether the
// destination happens to share the sender's shard.
func (e *Engine) ScheduleCrossAt(dst *Engine, t uint64, fn func()) {
	c := e.cluster
	if dst == e || !c.running {
		dst.scheduleEvent(t, fn)
		return
	}
	if c.lookahead == math.MaxUint64 {
		panic("sim: cross-shard event with no registered latency bound")
	}
	if t <= e.until {
		panic(fmt.Sprintf("sim: cross-shard event at %d inside the current epoch (bound %d)", t, e.until))
	}
	//ckvet:allow poolpath sanctioned growth point of the cross-shard outbox; reset by resetLogs at the epoch barrier
	e.outbox = append(e.outbox, crossMsg{at: t, dst: dst, fn: fn})
	//ckvet:allow poolpath sanctioned growth point of the registration log; reset by resetLogs at the epoch barrier
	e.subs = append(e.subs, subRec{kind: subCross, msg: int32(len(e.outbox) - 1)})
}

// newEvent draws an event record from the pool (executed events are
// recycled: immediately when logging is off, at the epoch barrier once
// the action log is done with them when logging is on).
func (e *Engine) newEvent() *event {
	if n := len(e.evFree); n > 0 {
		ev := e.evFree[n-1]
		e.evFree = e.evFree[:n-1]
		return ev
	}
	return &event{}
}

// freeEvent returns an executed event to the pool: on the non-logging
// path right after it fires, on the logging path from resetLogs at the
// epoch barrier (the action log references fired events until then).
func (e *Engine) freeEvent(ev *event) {
	ev.fn = nil
	//ckvet:allow poolpath the pool's own refill point; drained by newEvent, trimmed at barriers
	e.evFree = append(e.evFree, ev)
}

// poolRetain caps the capacity a pooled per-epoch structure keeps
// across epoch barriers. logEpochQuantum bounds an epoch's length in
// virtual time but not its decision count, so one pathological epoch
// can grow the logs arbitrarily; trimming at the barrier bounds what
// such a spike pins for the rest of the run, while steady-state epochs
// (usage above the cap every epoch) keep their high-water buffers and
// never re-allocate.
const poolRetain = 1 << 15

// poolTrimAfter is how many consecutive under-cap epochs a shard must
// see before an over-cap buffer is actually trimmed. Workloads that
// alternate heavy and idle epochs (staggered park phases) would
// otherwise trim on every idle epoch and re-allocate on the next heavy
// one — steady-state allocation churn, the exact thing the pools
// exist to eliminate. A genuine phase change (the heavy epochs are
// over) still releases the memory, just a few barriers later.
const poolTrimAfter = 8

// resetLogs clears the per-epoch logs for reuse and recycles every
// event the action log retained. Only the epoch barrier may call it:
// that is the one point where nothing can still reference a fired
// event — the merge's rank writes into fired events are done, and
// cross-injected events live in destination heaps, not in any log.
func (e *Engine) resetLogs() {
	actsUsed, subsUsed, outboxUsed := len(e.acts), len(e.subs), len(e.outbox)
	for i := range e.acts {
		if e.acts[i].kind == actEvent {
			e.freeEvent(e.acts[i].ev)
		}
	}
	// Zero before truncating so the retained arrays do not pin coros,
	// events or closures beyond the epoch that logged them.
	clear(e.acts)
	e.acts = e.acts[:0]
	clear(e.subs)
	e.subs = e.subs[:0]
	clear(e.outbox)
	e.outbox = e.outbox[:0]
	e.trimPools(actsUsed, subsUsed, outboxUsed)
}

// trimPools applies poolRetain: a structure whose capacity outgrew the
// cap is shrunk once poolTrimAfter consecutive epochs have fit under
// the cap. A workload that logs more than poolRetain entries at least
// every few epochs keeps its buffers.
func (e *Engine) trimPools(actsUsed, subsUsed, outboxUsed int) {
	if actsUsed > poolRetain || subsUsed > poolRetain || outboxUsed > poolRetain {
		e.smallEpochs = 0
		return
	}
	if e.smallEpochs < poolTrimAfter {
		e.smallEpochs++
		return
	}
	if cap(e.acts) > poolRetain {
		e.acts = make([]actRec, 0, poolRetain)
	}
	if cap(e.subs) > poolRetain {
		e.subs = make([]subRec, 0, poolRetain)
	}
	if cap(e.outbox) > poolRetain {
		e.outbox = make([]crossMsg, 0, poolRetain)
	}
	if len(e.evFree) > poolRetain {
		clear(e.evFree[poolRetain:])
		e.evFree = e.evFree[:poolRetain]
	}
}

// ErrMaxSteps reports that Run stopped because the step guard tripped.
var ErrMaxSteps = errors.New("sim: exceeded MaxSteps scheduling decisions")

// gridQuantum is the slice grid: a dispatched coroutine runs until its
// clock crosses the next multiple of gridQuantum (or it parks, or its
// horizon is shrunk by an unpark or event it issued itself). Slice
// boundaries are therefore intrinsic to each coroutine's own charge
// trajectory — never derived from which other entities happen to share
// the engine — which is what makes the schedule identical under any
// sharding of the entities: the engine merely merges intrinsic slices,
// events and activations by (time, id), and that merge commutes with
// partitioning. The grid also bounds how long a non-yielding loop can
// hold the engine, keeping it responsive to the step guard.
const gridQuantum = 1 << 16

// run executes the shard until no coroutine is runnable and no event is
// pending, or until the next entity's time exceeds until. It returns
// ErrMaxSteps if the step guard trips. Only the cluster calls it, once
// per epoch.
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

// runEvent executes one due event, logging and recycling as the mode
// requires.
func (e *Engine) runEvent(ev *event) {
	e.now = ev.at
	e.sched++
	if ev.at > e.schedAt {
		e.schedAt = ev.at
	}
	if e.logging {
		//ckvet:allow poolpath sanctioned growth point of the action log; reset by resetLogs at the epoch barrier
		e.acts = append(e.acts, actRec{at: ev.at, ev: ev, sub: int32(len(e.subs)), kind: actEvent})
		ev.fn()
		return
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
// which entities share the engine, breaking shard-count invariance.
// Causality does not need entity capping: any interaction the running
// coroutine initiates (an unpark, a scheduled event) shrinks its own
// horizon at the interaction point, which is intrinsic to its code.
func (e *Engine) horizonFor(coTime uint64) uint64 {
	return coTime - coTime%gridQuantum + gridQuantum
}

// pickDirect evaluates the next scheduling decision from inside a
// yielding coroutine. If that decision resumes a coroutine it performs
// the dispatch bookkeeping (step count, queue pop, virtual time, trace)
// and returns it with its horizon; for anything the engine goroutine
// must handle — a due event, quiescence, the run bound, the step guard —
// it mutates nothing and reports !ok so the yielder bounces control
// back to run, which re-evaluates identically.
func (e *Engine) pickDirect() (next *Coro, horizon uint64, ok bool) {
	if e.maxSteps != 0 && e.steps >= e.maxSteps {
		return nil, 0, false
	}
	co, coTime := e.peekRunnable()
	if co == nil || coTime > e.until {
		return nil, 0, false
	}
	if len(e.events) > 0 && e.events[0].at <= coTime {
		return nil, 0, false
	}
	e.steps++
	e.runq.pop()
	horizon = e.horizonFor(coTime)
	e.now = coTime
	e.logDispatch(co, coTime)
	return co, horizon, true
}

// logDispatch records one dispatch decision. An activation (first
// dispatch since unpark) is a schedule point: it is counted, traced,
// and advances the schedule-point clock. Re-slices are logged too on a
// logging cluster — the barrier merge replays the complete decision
// sequence, and with intrinsic slice boundaries that sequence is
// identical across shard counts — but they are not schedule points.
func (e *Engine) logDispatch(co *Coro, coTime uint64) {
	kind := uint8(actReslice)
	if co.fresh {
		co.fresh = false
		kind = actDispatch
		e.sched++
		if coTime > e.schedAt {
			e.schedAt = coTime
		}
		// A logging cluster traces activations from the barrier merge,
		// in serial order; an unlogged one (one shard) has nothing to
		// merge, so the engine traces them as they happen.
		if tr := e.cluster.trace; tr != nil && !e.logging {
			tr(co.name, coTime)
		}
	}
	if e.logging {
		//ckvet:allow poolpath sanctioned growth point of the action log; reset by resetLogs at the epoch barrier
		e.acts = append(e.acts, actRec{at: coTime, co: co, sub: int32(len(e.subs)), kind: kind})
	}
}

// resumeCoro transfers control to co until control bounces back to the
// engine goroutine. With direct handoff, any number of coroutine-to-
// coroutine switches may happen before that; exactly one goroutine is
// ever active, so engine state needs no locking.
func (e *Engine) resumeCoro(co *Coro, horizon uint64) {
	e.current = co
	if !co.started {
		e.startCoro(co)
	}
	co.resume <- horizon
	<-e.yieldCh
	e.current = nil
}

// startCoro launches the coroutine's goroutine. When the body returns,
// the coroutine is removed from the engine's tracked set entirely —
// long-running simulations do not accumulate finished contexts — and
// control bounces to the engine goroutine. A body released by
// Cluster.Close leaves the same way, back to Close.
func (e *Engine) startCoro(co *Coro) {
	co.started = true
	//ckvet:allow detmap coroutine goroutines hand off through unbuffered channels; exactly one is ever runnable
	go func() {
		co.ctx.horizon = <-co.resume
		co.body()
		co.done = true
		co.runnable = false
		e.removeCoro(co)
		e.yieldCh <- co
	}()
}

// body runs the coroutine's function. On a closed cluster the function
// is being released, and the release signal that unwound it stops
// here. The closed flag is read before the goroutine's final handoff on
// yieldCh: once that handoff is made, Close is free to move on, and
// nothing of the released machine may be touched after it. During a
// run nothing is recovered, so a real panic crashes the process with
// its original stack.
func (co *Coro) body() {
	defer func() {
		if !co.eng.cluster.closed {
			return
		}
		if r := recover(); r != nil && r != any(releaseSignal{}) {
			panic(r)
		}
	}()
	co.fn(co.ctx)
}

// releaseSignal is the panic value that unwinds a coroutine released by
// Cluster.Close.
type releaseSignal struct{}

// release unwinds every started, unfinished coroutine of the engine,
// one at a time on the caller's goroutine. Each one wakes inside yield,
// panics with the release signal and leaves through startCoro's
// epilogue, which drops it from coros and hands control back here.
// Never-started coroutines have no goroutine to unwind.
func (e *Engine) release() {
	for i := 0; i < len(e.coros); {
		co := e.coros[i]
		if !co.started {
			i++
			continue
		}
		e.current = co
		co.resume <- 0
		<-e.yieldCh
		e.current = nil
	}
}

// removeCoro drops a finished coroutine from the live set, preserving
// creation order. Called from the finishing coroutine's goroutine while
// every other goroutine is parked, so no synchronization is needed.
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
// scheduled. If the next scheduling decision resumes a coroutine, the
// yielder hands control to it directly — or simply keeps running when
// that coroutine is itself — avoiding the round trip through the engine
// goroutine. Decisions the engine must make (events, bounds, guards)
// bounce back to run.
//
// On a closed cluster yield panics with the release signal before it
// touches the run queue or starts any coroutine: a released coroutine
// whose deferred code charges on the way out keeps unwinding.
func (ctx *Ctx) yield() {
	co := ctx.co
	e := co.eng
	if e.cluster.closed {
		panic(releaseSignal{})
	}
	if co.runnable {
		e.runq.push(coroEntry{at: co.clock.now, co: co})
	}
	if next, horizon, ok := e.pickDirect(); ok {
		e.current = next
		if next == co {
			ctx.horizon = horizon
			return
		}
		if !next.started {
			e.startCoro(next)
		}
		next.resume <- horizon
	} else {
		e.yieldCh <- co
	}
	ctx.horizon = <-co.resume
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

// eventHeap is a min-heap of events ordered by (at, seq).
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

// less orders events by (at, band, seq). Bands only separate at equal
// times, where they reproduce the serial registration order:
// construction (0) before prior-epoch runtime ranks (1) before
// this-epoch shard-local registrations (2) — each band's counter is
// itself monotone in serial registration order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.band != b.band {
		return a.band < b.band
	}
	return a.seq < b.seq
}

// reheap restores the event heap invariant after the barrier re-ranks
// pending events in place.
func (h eventHeap) reheap() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		j := i
		for {
			l, r := 2*j+1, 2*j+2
			m := j
			if l < n && less(h[l], h[m]) {
				m = l
			}
			if r < n && less(h[r], h[m]) {
				m = r
			}
			if m == j {
				break
			}
			h[j], h[m] = h[m], h[j]
			j = m
		}
	}
}
