package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// streamRun is one run of a random arming scenario (buildStreamRun).
// With useStreams the armings go to one Stream per stream number;
// otherwise each arming is its own ScheduleAt of the same callback, the
// reference the stream must match.
type streamRun struct {
	e          *Engine
	useStreams bool
	streams    []*Stream
	fns        []func()
	// last is the latest arming time of each stream, kept by the
	// scenario so every arming it makes is monotone.
	last []uint64
	log  []string
	hash TraceHash
}

// arm registers one occurrence of stream i at t.
func (r *streamRun) arm(i int, t uint64) {
	if t < r.last[i] {
		t = r.last[i]
	}
	r.last[i] = t
	if r.useStreams {
		r.streams[i].At(t)
	} else {
		r.e.ScheduleAt(t, r.fns[i])
	}
}

func (r *streamRun) rec(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf(format, args...))
}

// buildStreamRun builds the scenario seed describes: streams armed
// before the run, from their own callbacks, from plain ScheduleAt and
// DeliverAt events, and from coroutines inside their slices; stream
// callbacks unpark parked coroutines, as a slice timer wakes a CPU.
// Every random draw happens in execution order, so both modes draw the
// same numbers as long as they execute the same schedule.
func buildStreamRun(seed uint64, useStreams bool) *streamRun {
	const (
		nStreams = 3
		nCoros   = 3
	)
	rng := NewRand(seed)
	r := &streamRun{e: &Engine{}, useStreams: useStreams, last: make([]uint64, nStreams)}
	e := r.e
	e.SetTrace(r.hash.Add)
	// Arming times fall on a coarse grid, so occurrences of different
	// streams and plain events often tie, and the seqs decide.
	const unit = gridQuantum / 8
	later := func(now uint64) uint64 { return (now/unit + uint64(rng.Intn(24))) * unit }

	var (
		coros  []*Coro
		clocks []*Clock
		parked []bool
	)
	refires := 0
	for i := 0; i < nStreams; i++ {
		i := i
		fn := func() {
			r.rec("s%d@%d", i, e.Now())
			if c := (i + rng.Intn(nCoros)) % nCoros; parked[c] {
				parked[c] = false
				clocks[c].AdvanceTo(e.Now())
				e.UnparkOn(coros[c], clocks[c])
			}
			if refires < 40 && rng.Intn(3) == 0 {
				refires++
				r.arm(rng.Intn(nStreams), later(e.Now()))
			}
		}
		r.fns = append(r.fns, fn)
		r.streams = append(r.streams, e.NewStream(fn))
	}
	for c := 0; c < nCoros; c++ {
		c := c
		name := fmt.Sprintf("co%d", c)
		clocks = append(clocks, NewClock(name))
		parked = append(parked, false)
		coros = append(coros, e.NewCoro(name, func(ctx *Ctx) {
			for n := 0; n < 24; n++ {
				ctx.Advance(uint64(1 + rng.Intn(gridQuantum/2)))
				r.rec("%s@%d", name, ctx.Now())
				switch rng.Intn(4) {
				case 0, 1:
					// Arm from inside the slice: the horizon may shrink.
					r.arm(rng.Intn(nStreams), later(ctx.Now()))
					r.rec("%s horizon %d", name, ctx.horizon)
				case 2:
					parked[c] = true
					ctx.Park()
					r.rec("%s woke@%d", name, ctx.Now())
				}
			}
		}))
		e.UnparkOn(coros[c], clocks[c])
	}
	// Plain events among the occurrences, some of which arm streams
	// from engine context.
	for n := 0; n < 12; n++ {
		n := n
		at := later(0) / 2
		ev := func() {
			r.rec("ev%d@%d", n, e.Now())
			if rng.Intn(2) == 0 {
				r.arm(rng.Intn(nStreams), later(e.Now()))
			}
		}
		if n%2 == 0 {
			e.ScheduleAt(at, ev)
		} else {
			e.DeliverAt(at, ev)
		}
	}
	// A backlog on stream 0 large enough to grow its ring twice, and a
	// few armings of the others, all before the run.
	for n := 0; n < 3*firstRing; n++ {
		r.arm(0, uint64(n)*2*unit)
	}
	for i := 1; i < nStreams; i++ {
		r.arm(i, later(0))
		r.arm(i, later(r.last[i]))
	}
	return r
}

// fingerprint runs r to the end, cut into Run calls at each cut, and
// renders everything observable: the firing and coroutine log with its
// horizons, the schedule-point count, the raw decision count and the
// dispatch trace's hash.
func (r *streamRun) fingerprint(t *testing.T, cuts ...uint64) string {
	t.Helper()
	defer r.e.Close()
	for _, cut := range append(cuts, math.MaxUint64) {
		if err := r.e.Run(cut); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%s\nsteps:%d decisions:%d trace:%x/%d",
		strings.Join(r.log, "\n"), r.e.Steps(), r.e.steps, r.hash.Sum64(), r.hash.Count())
}

// TestStreamMatchesScheduleAt runs random arming scenarios once on
// streams and once with one ScheduleAt per arming. The two must fire
// the same callbacks in the same order at the same times, shrink the
// same horizons and make the same scheduling decisions, in one Run and
// cut into several. The streams' queue footprint is the point: at most
// one entry each, where the reference queues every pending arming.
func TestStreamMatchesScheduleAt(t *testing.T) {
	grew := false
	for seed := uint64(1); seed <= 200; seed++ {
		for _, cuts := range [][]uint64{nil, {3 * gridQuantum, 7 * gridQuantum}} {
			ref := buildStreamRun(seed, false).fingerprint(t, cuts...)
			run := buildStreamRun(seed, true)
			if got := run.fingerprint(t, cuts...); got != ref {
				t.Fatalf("seed %d, cuts %v: streams diverge from ScheduleAt:\nwant:\n%s\ngot:\n%s", seed, cuts, ref, got)
			}
			if len(run.streams[0].ring) > 2*firstRing {
				grew = true
			}
		}
	}
	if !grew {
		t.Fatalf("no scenario grew a ring past %d occurrences", 2*firstRing)
	}
}

// TestStreamKeepsOneQueueEntry: a stream's backlog waits in its ring,
// not in the engine's queue, and drains in time order.
func TestStreamKeepsOneQueueEntry(t *testing.T) {
	e := &Engine{}
	var fired []uint64
	s := e.NewStream(func() { fired = append(fired, e.Now()) })
	for n := uint64(0); n < 20; n++ {
		s.At(100 + 10*n)
	}
	if len(e.queue) != 1 {
		t.Fatalf("queue holds %d entries for one stream, want 1", len(e.queue))
	}
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 20 || fired[0] != 100 || fired[19] != 290 {
		t.Fatalf("fired at %v", fired)
	}
	if err := e.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamOutOfOrderPanics: an occurrence before the stream's
// previous one panics, whether or not that one has fired yet.
func TestStreamOutOfOrderPanics(t *testing.T) {
	for _, fire := range []bool{false, true} {
		e := &Engine{}
		s := e.NewStream(func() {})
		s.At(50)
		if fire {
			if err := e.Run(math.MaxUint64); err != nil {
				t.Fatal(err)
			}
		}
		s.At(50) // equal times are in order
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("fired=%v: At(49) after At(50) did not panic", fire)
				}
			}()
			s.At(49)
		}()
	}
}
