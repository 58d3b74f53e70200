package sim

import "math"

// Cluster drives one simulation on one Engine, which holds every clock,
// coroutine and event of the machine: in the hardware layer, every
// MPM. The paper's MPMs reach each other only through messages that pay
// a transit time (internal/hw/dev), and those ride the engine as
// ordinary events (Engine.DeliverAt), so one engine reproduces the
// whole machine's schedule in virtual time. The cluster owns what
// outlives a single Run call: the dispatch-trace hook, the step guard
// and the closed state.
type Cluster struct {
	eng *Engine
	// closed is set by Close: the simulation has ended and every
	// started coroutine has been released.
	closed bool

	// trace, when non-nil, receives every activation in schedule order.
	trace func(name string, at uint64)

	// MaxSteps bounds total scheduling decisions. Zero means no limit.
	MaxSteps uint64
}

// NewCluster returns a cluster with an empty engine.
func NewCluster() *Cluster {
	c := &Cluster{}
	c.eng = &Engine{cluster: c}
	return c
}

// Engine returns the cluster's engine.
func (c *Cluster) Engine() *Engine { return c.eng }

// SetTrace installs the dispatch-trace hook: fn is called with the
// coroutine name and virtual dispatch time on every activation — a
// dispatch of a coroutine that was unparked since it last ran — in
// schedule order. Preemption re-slices are not traced: activations are
// a property of the simulated schedule itself, not of how the host
// sliced it. TraceHash fingerprints the resulting trace.
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
// point the engine has executed.
func (c *Cluster) Now() uint64 { return c.eng.schedAt }

// Steps reports total schedule points: event executions plus coroutine
// activations.
func (c *Cluster) Steps() uint64 { return c.eng.sched }

// Run executes the simulation until the engine is quiescent or the next
// entity's time exceeds until (pass math.MaxUint64 for no bound). It
// returns ErrMaxSteps if the step guard trips. A coroutine's panic
// reaches Run's caller as a *Panic; the machine is then only fit for
// Close.
func (c *Cluster) Run(until uint64) error {
	if c.closed {
		panic("sim: Run after Close")
	}
	e := c.eng
	// A Run with nothing due makes no scheduling decision, so it leaves
	// the step guard's count alone.
	if t := e.nextTime(); t == math.MaxUint64 || t > until {
		return nil
	}
	e.maxSteps = c.MaxSteps
	return e.run(until)
}

// Close ends the simulation. It releases every started, unfinished
// coroutine, one at a time: each one wakes with the release signal,
// unwinds its body without running any more simulated code, and exits.
// Until then a parked coroutine is a suspended goroutine that keeps the
// whole simulation reachable. Close must be called between Run calls
// (also after Run panicked), never from a coroutine or an event. A
// second Close is a no-op; Run after Close panics.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.eng.release()
}
