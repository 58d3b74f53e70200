package sim

import (
	"math"
)

// Cluster drives one simulation over one or more engines (shards), each
// owning a disjoint set of clocks and coroutines (in the hardware layer:
// a group of MPMs). Every engine belongs to a cluster; a one-shard
// cluster is the serial engine. Shards advance independently inside
// virtual-time epochs no longer than the minimum cross-shard
// interaction latency (Bound), so no shard can observe an effect from
// another shard before the epoch barrier at which it is delivered. The
// paper's machine makes this lookahead safe: every cross-MPM
// interaction — a fiber-channel message, an Ethernet frame — charges a
// fixed minimum transit cost from internal/hw/cost.go before it can
// touch another MPM.
//
// Determinism is exact, not just per-run: a cluster reproduces the
// serial engine's schedule byte for byte. Each shard logs its actions
// (event executions and coroutine dispatches) and its runtime
// registrations during the epoch; at the barrier the coordinator merges
// the per-shard logs into the unique serial order — events before
// dispatches at equal times, then band, then rank, exactly the serial
// engine's tie-break — assigns every runtime registration its global
// rank in merge order (reproducing the serial engine's single
// registration counter), injects cross-shard messages into their
// destination heaps, and emits the merged dispatch trace. Shards whose
// interconnects never cross a shard boundary need no barrier at all:
// with no registered bound the epoch spans the whole run and the log is
// skipped entirely, which is the scaling fast path. A one-shard cluster
// always takes it: it has nothing to merge, ignores Bound, and traces
// straight from its engine.
type Cluster struct {
	engines []*Engine

	// ctorSeq is the cluster-wide construction-order counter: ids drawn
	// before Run reproduce the single-engine creation order exactly.
	ctorSeq uint64
	running bool
	// closed is set by Close: the simulation has ended and every
	// started coroutine has been released.
	closed bool

	// lookahead is the minimum registered cross-shard latency in
	// cycles; MaxUint64 means no cross-shard channel exists.
	lookahead uint64

	// grank is the global rank counter for runtime registrations,
	// assigned in merged serial order at each barrier.
	grank uint64

	// trace, when non-nil, receives every activation in serial order:
	// from the barrier merge when the cluster logs, from the engine
	// itself when it does not.
	trace func(name string, at uint64)

	// MaxSteps bounds total scheduling decisions across all shards.
	// Zero means no limit.
	MaxSteps uint64

	workers []shardWorker

	// barrier merge scratch (reused across epochs).
	ran     []int
	cursors []int
	subCur  []int
	dirty   []bool

	// san is the runtime ownership sanitizer's epoch state; empty
	// unless built with -tags cksan.
	san sanClusterState
}

// shardWorker drives one engine on a dedicated goroutine.
type shardWorker struct {
	req chan uint64
	res chan error
}

// NewCluster returns a cluster of n empty engines. Coroutines and
// events created before Run draw construction-order ids from a shared
// counter, so the serial creation order is preserved across shards.
func NewCluster(n int) *Cluster {
	if n < 1 {
		panic("sim: cluster needs at least one shard")
	}
	c := &Cluster{lookahead: math.MaxUint64}
	for i := 0; i < n; i++ {
		c.engines = append(c.engines, &Engine{cluster: c, shard: i})
	}
	return c
}

// Engine returns shard i's engine.
func (c *Cluster) Engine(i int) *Engine { return c.engines[i] }

// Shards reports the number of shards.
func (c *Cluster) Shards() int { return len(c.engines) }

// Running reports whether Run has started: construction-time freedoms
// (Bound, chaos arming, topology changes) are over once it has.
func (c *Cluster) Running() bool { return c.running }

// Bound registers a cross-shard interaction latency: no effect
// originating in one shard may become visible in another sooner than
// latency cycles after its cause. The epoch length is the minimum over
// all registered bounds. Must be called before Run (interconnect
// topology is construction-time state). A one-shard cluster has no
// cross-shard channel, so Bound is a no-op on it.
func (c *Cluster) Bound(latency uint64) {
	if len(c.engines) == 1 {
		return
	}
	if c.running {
		panic("sim: Bound after Run")
	}
	if latency == 0 {
		panic("sim: zero cross-shard latency bound")
	}
	if latency < c.lookahead {
		c.lookahead = latency
	}
}

// SetTrace installs the dispatch-trace hook: fn is called with the
// coroutine name and virtual dispatch time on every activation — a
// dispatch of a coroutine that was unparked since it last ran — in
// serial order. Preemption re-slices are not traced: activations are a
// property of the simulated schedule itself and therefore identical
// across shard counts. TraceHash fingerprints the resulting trace.
func (c *Cluster) SetTrace(fn func(name string, at uint64)) { c.trace = fn }

// FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// TraceHash fingerprints a dispatch schedule: FNV-1a over each
// activation's coroutine name and little-endian virtual time, plus a
// count of activations. Its Add method is a SetTrace hook. The zero
// value is an empty schedule. The determinism goldens, the simulation
// harness's schedule hash and the fork family's continuation hashes
// are all TraceHash sums, so equal schedules print equal hashes
// wherever they are reported.
type TraceHash struct {
	sum, n uint64
}

// Add folds one activation into the hash.
func (h *TraceHash) Add(name string, at uint64) {
	s := h.Sum64()
	for i := 0; i < len(name); i++ {
		s ^= uint64(name[i])
		s *= fnvPrime
	}
	for i := 0; i < 8; i++ {
		s ^= uint64(byte(at >> (8 * i)))
		s *= fnvPrime
	}
	h.sum = s
	h.n++
}

// Sum64 returns the hash of the activations added so far.
func (h *TraceHash) Sum64() uint64 {
	if h.n == 0 {
		return fnvOffset
	}
	return h.sum
}

// Count returns the number of activations added.
func (h *TraceHash) Count() uint64 { return h.n }

// Now reports the cluster's global virtual time: the latest schedule
// point any shard has executed, identical across shard counts.
func (c *Cluster) Now() uint64 {
	var t uint64
	for _, e := range c.engines {
		if e.schedAt > t {
			t = e.schedAt
		}
	}
	return t
}

// Steps reports total schedule points (event executions plus coroutine
// activations) across all shards. Both are properties of the simulated
// schedule, not of its host-side slicing, so the sum matches the serial
// engine's count exactly.
func (c *Cluster) Steps() uint64 {
	var s uint64
	for _, e := range c.engines {
		s += e.sched
	}
	return s
}

// logEpochQuantum caps epoch length on the logged path when no
// cross-shard bound exists, so per-epoch action logs stay bounded.
const logEpochQuantum = 1 << 22

// Run executes the simulation until every shard is quiescent or the
// next entity's time exceeds until (pass math.MaxUint64 for no bound).
// It returns ErrMaxSteps if the cluster-wide step guard trips. A
// coroutine's panic reaches Run's caller as a *Panic at any shard
// count: a shard worker hands it back, and Run raises it again once
// every shard of the epoch has stopped. The machine is then only fit
// for Close.
func (c *Cluster) Run(until uint64) error {
	if c.closed {
		panic("sim: Run after Close")
	}
	if !c.running {
		c.running = true
		// Shard-local runtime counters start past every construction
		// id, as the serial counter would.
		for _, e := range c.engines {
			if e.seq < c.ctorSeq {
				e.seq = c.ctorSeq
			}
		}
	}
	logging := len(c.engines) > 1 && (c.trace != nil || c.lookahead != math.MaxUint64)
	for _, e := range c.engines {
		e.logging = logging
	}
	// Between Run calls the host may schedule fresh work directly, as it
	// did at construction. Those registrations must not land in the
	// pooled logs — no barrier would ever consume them, so they would
	// sit in the reset-empty buffers as stale growth (the cksan
	// epoch-begin assertion). Disarm logging on every exit; the next Run
	// re-arms it before its first epoch.
	defer func() {
		for _, e := range c.engines {
			e.logging = false
		}
	}()
	for {
		t := uint64(math.MaxUint64)
		for _, e := range c.engines {
			if nt := e.nextTime(); nt < t {
				t = nt
			}
		}
		if t == math.MaxUint64 || t > until {
			return nil
		}
		bound := until
		if c.lookahead != math.MaxUint64 && t+c.lookahead-1 < bound {
			bound = t + c.lookahead - 1
		}
		if logging && bound-t > logEpochQuantum {
			bound = t + logEpochQuantum
		}

		// Dispatch the epoch to every shard with work inside it, then
		// wait for all of them: the barrier. Budgets are armed for every
		// participant before the first dispatch — budget() reads all
		// shards' step counters, which must not happen while a worker is
		// already advancing its engine.
		c.ran = c.ran[:0]
		for i, e := range c.engines {
			if e.nextTime() <= bound {
				//ckvet:allow poolpath sanctioned growth point of the epoch participant scratch; reset at the top of every epoch
				c.ran = append(c.ran, i)
			}
		}
		for _, i := range c.ran {
			c.budget(c.engines[i])
		}
		c.sanEpochBegin()
		var maxed error
		if len(c.ran) == 1 {
			// One active shard means nothing runs concurrently: drive it
			// inline on the coordinator goroutine and skip both channel
			// round-trips. A one-shard cluster always runs this way.
			maxed = c.engines[c.ran[0]].run(bound)
		} else {
			c.startWorkers()
			for _, i := range c.ran {
				c.workers[i].req <- bound
			}
			var p *Panic
			for _, i := range c.ran {
				err := <-c.workers[i].res
				if q, ok := err.(*Panic); ok {
					if p == nil {
						p = q
					}
				} else if err != nil {
					maxed = err
				}
			}
			if p != nil {
				panic(p)
			}
		}
		c.sanEpochEnd()
		if logging {
			c.barrier()
		}
		if maxed != nil {
			return maxed
		}
	}
}

// Close ends the simulation. It stops the shard workers and releases
// every started, unfinished coroutine, one at a time: each one wakes
// with the release signal, unwinds its body without running any more
// simulated code, and exits. Until then a parked coroutine is a
// suspended goroutine that keeps the whole simulation reachable. Close
// must be called between Run calls (also after Run panicked), never
// from a coroutine or an event. A second Close is a no-op; Run after
// Close panics.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.workers {
		close(w.req)
		<-w.res // closed by the worker as it exits
	}
	c.workers = nil
	for _, e := range c.engines {
		e.release()
	}
}

// budget arms a shard's step guard with the cluster-wide remainder. A
// shard may consume the whole remainder in one epoch, so the guard is a
// runaway bound within a factor of the shard count, like the serial
// guard is within one quantum.
func (c *Cluster) budget(e *Engine) {
	if c.MaxSteps == 0 {
		e.maxSteps = 0
		return
	}
	var total uint64
	for _, s := range c.engines {
		total += s.steps
	}
	rem := uint64(0)
	if c.MaxSteps > total {
		rem = c.MaxSteps - total
	}
	e.maxSteps = e.steps + rem
}

// startWorkers launches one persistent goroutine per shard; each
// engine is only ever driven by its own worker, until Close stops it.
// Called lazily, on the first epoch with two or more active shards: a
// cluster whose epochs are all single-shard (or a one-shard cluster)
// runs entirely on the coordinator goroutine and never spawns a
// worker. Handing an engine between the coordinator and its worker is
// ordered by the req/res channel operations. A coroutine's *Panic comes
// back on res as the epoch's result, for Run to raise.
func (c *Cluster) startWorkers() {
	if c.workers != nil {
		return
	}
	for _, e := range c.engines {
		w := shardWorker{req: make(chan uint64), res: make(chan error)}
		c.workers = append(c.workers, w)
		e := e
		//ckvet:allow detmap shard workers advance disjoint engines inside an epoch; the barrier merge restores the serial order exactly
		go func() {
			for bound := range w.req {
				w.res <- e.runShard(bound)
			}
			close(w.res)
		}()
	}
}

// runShard is one epoch of a shard worker: e.run, with a coroutine's
// *Panic returned instead of raised. Any other panic (an event's, the
// engine's own) is raised again and still ends the process.
func (e *Engine) runShard(bound uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(*Panic)
			if !ok {
				panic(r)
			}
			err = p
		}
	}()
	return e.run(bound)
}

// actKey extracts an action's serial-order key: entity time, then
// class (events run before dispatches at equal times, the serial
// engine's evTime <= coTime rule), then band and in-band rank. Band and
// rank cells are always filled by the time the action can become a
// shard's merge head: the registration that determines them is either
// construction-time, was ranked at a previous barrier, or sits earlier
// in the same shard's log and was therefore consumed first.
//
// Keys are compared only between shard HEADS: within a shard, the log
// is consumed strictly in order, because it already is the serial order
// restricted to that shard's entities. The head-merge reproduces the
// serial engine's complete decision sequence: the serial engine's next
// decision is always some shard's log head, and no other shard's head
// can key below it — an entry that would (say a just-woken coroutine on
// a stale clock, whose raw time lies in the past) sits behind its
// waker's slice in its own shard's log and only surfaces once the
// serial order reaches it.
func actKey(a *actRec) (at uint64, cls uint8, band uint8, rank uint64) {
	if a.kind == actEvent {
		return a.at, 0, a.ev.band, a.ev.seq
	}
	return a.at, 1, a.co.band, a.co.gid
}

// lessKey is the serial engine's global tie-break over actKey tuples.
func lessKey(at1 uint64, cls1, band1 uint8, rank1 uint64,
	at2 uint64, cls2, band2 uint8, rank2 uint64) bool {
	if at1 != at2 {
		return at1 < at2
	}
	if cls1 != cls2 {
		return cls1 < cls2
	}
	if band1 != band2 {
		return band1 < band2
	}
	return rank1 < rank2
}

// barrier merges the epoch's per-shard action logs into the serial
// global order, assigning every runtime registration its global rank at
// its merge position (reproducing the serial engine's registration
// counter), injecting cross-shard messages into their destination
// heaps, and emitting the merged dispatch trace.
func (c *Cluster) barrier() {
	n := len(c.engines)
	if c.cursors == nil {
		c.cursors = make([]int, n)
		c.subCur = make([]int, n)
		c.dirty = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		c.cursors[i], c.subCur[i], c.dirty[i] = 0, 0, false
	}
	// Registrations logged before any action of the epoch come from a
	// coroutine slice continuing across the boundary (its activation was
	// logged in a prior epoch). Rank them first, in shard order.
	for s, e := range c.engines {
		end := len(e.subs)
		if len(e.acts) > 0 {
			end = int(e.acts[0].sub)
		}
		c.consumeSubs(e, s, end)
	}
	for {
		best := -1
		var bAt, bRank uint64
		var bCls, bBand uint8
		for s, e := range c.engines {
			k := c.cursors[s]
			if k >= len(e.acts) {
				continue
			}
			at, cls, band, rank := actKey(&e.acts[k])
			if best == -1 || lessKey(at, cls, band, rank, bAt, bCls, bBand, bRank) {
				best, bAt, bCls, bBand, bRank = s, at, cls, band, rank
			}
		}
		if best == -1 {
			break
		}
		c.consumeAction(best)
	}
	for s, e := range c.engines {
		// A trailing slice may also register after its epoch's last
		// logged action; rank those at the barrier, in shard order.
		c.consumeSubs(e, s, len(e.subs))
	}
	// All injections are done: now every fired event is unreferenced and
	// the logs can recycle (resetLogs), and every destination heap that
	// received ranks or injections can be restored in one pass.
	for s, e := range c.engines {
		e.resetLogs()
		if c.dirty[s] {
			e.events.reheap()
		}
	}
}

// PoolStat reports one shard's pooled hot-path buffers: the per-epoch
// logs (zero entries between epochs — resetLogs runs at every barrier)
// and the event free list. Capacities are bounded by poolRetain once an
// epoch's usage fits under it; cksan asserts the reset invariant at
// every epoch begin, and tests assert it between runs.
type PoolStat struct {
	Shard                       int
	Acts, Subs, Outbox          int
	ActsCap, SubsCap, OutboxCap int
	FreeEvents                  int
}

// PoolStats snapshots every shard's pooled-buffer state. Only valid
// between Run calls or at a barrier (no worker may be advancing).
func (c *Cluster) PoolStats() []PoolStat {
	out := make([]PoolStat, len(c.engines))
	for i, e := range c.engines {
		out[i] = PoolStat{
			Shard:   i,
			Acts:    len(e.acts),
			Subs:    len(e.subs),
			Outbox:  len(e.outbox),
			ActsCap: cap(e.acts), SubsCap: cap(e.subs), OutboxCap: cap(e.outbox),
			FreeEvents: len(e.evFree),
		}
	}
	return out
}

// consumeAction consumes shard s's next logged action: updates global
// time, emits the trace record, and ranks the registrations the action
// made.
func (c *Cluster) consumeAction(s int) {
	e := c.engines[s]
	a := &e.acts[c.cursors[s]]
	c.cursors[s]++
	if a.kind == actDispatch && c.trace != nil {
		c.trace(a.co.name, a.at)
	}
	end := len(e.subs)
	if c.cursors[s] < len(e.acts) {
		end = int(e.acts[c.cursors[s]].sub)
	}
	c.consumeSubs(e, s, end)
}

// consumeSubs ranks shard s's logged registrations up to index end at
// the current merge position: each gets the next global rank, and
// cross-shard messages are injected into their destination heaps.
func (c *Cluster) consumeSubs(e *Engine, s, end int) {
	for ; c.subCur[s] < end; c.subCur[s]++ {
		sub := &e.subs[c.subCur[s]]
		c.grank++
		switch sub.kind {
		case subCoro:
			sub.co.band, sub.co.gid = 1, c.grank
		case subEvent:
			// Harmless if the event already fired this epoch: the
			// rank cell is then only read for merge comparisons
			// already past.
			sub.ev.band, sub.ev.seq = 1, c.grank
			c.dirty[s] = true
		case subCross:
			msg := &e.outbox[sub.msg]
			c.sanCheckInject(msg)
			dst := msg.dst
			ev := dst.newEvent()
			ev.at, ev.fn, ev.band, ev.seq = msg.at, msg.fn, 1, c.grank
			dst.events = append(dst.events, ev)
			c.dirty[dst.shard] = true
			msg.fn = nil
		}
	}
}
