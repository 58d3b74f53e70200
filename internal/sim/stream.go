package sim

import "fmt"

// Stream is a monotone event stream: repeated occurrences of one
// callback whose times never decrease, such as a CPU's slice timer,
// which is armed at its clock plus a fixed slice. A stream behaves
// exactly as one ScheduleAt per occurrence — each occurrence takes its
// seq when it is registered and runs in the same (at, key) order — but
// only its earliest pending occurrence is in the engine's queue. The
// later ones wait in a ring, and each firing pushes the next. Because
// occurrence times never decrease and seqs grow, the earliest one is
// the least of them in queue order, so the queue's first entry is what
// it would be with every occurrence queued. The queue's length follows
// the number of streams, plain events and runnable coroutines, not the
// number of pending occurrences, and arming allocates nothing once the
// ring has grown to the stream's backlog.
type Stream struct {
	e  *Engine
	fn func()
	// fire is s.next, the queue entry's callback, built once.
	fire func()
	// queued is set while the earliest pending occurrence is in the
	// engine's queue; ring holds the ones after it, oldest at head.
	queued  bool
	ring    []occurrence
	head, n int
	// last is the latest registered occurrence time.
	last uint64
}

// occurrence is one pending stream occurrence waiting in the ring.
type occurrence struct{ at, seq uint64 }

// firstRing is the ring's length when a second occurrence first waits.
const firstRing = 8

// NewStream returns a stream whose occurrences run fn in engine
// context, as ScheduleAt's events do.
func (e *Engine) NewStream(fn func()) *Stream {
	s := &Stream{e: e, fn: fn}
	s.fire = s.next
	return s
}

// At registers an occurrence at virtual time t. Like ScheduleAt it takes
// the next seq and shrinks the running coroutine's horizon to t if t
// comes first. t must not precede the stream's previous occurrence: At
// panics if it does.
func (s *Stream) At(t uint64) {
	if t < s.last {
		panic(fmt.Sprintf("sim: stream occurrence at %d precedes the previous one at %d", t, s.last))
	}
	s.last = t
	e := s.e
	e.seq++
	if !s.queued {
		s.queued = true
		e.queue.push(entry{at: t, key: e.seq, fn: s.fire})
	} else {
		s.wait(occurrence{at: t, seq: e.seq})
	}
	if cur := e.current; cur != nil {
		cur.ctx.shrink(t)
	}
}

// wait appends o to the ring, doubling the ring when it is full.
func (s *Stream) wait(o occurrence) {
	if s.n == len(s.ring) {
		ring := make([]occurrence, max(firstRing, 2*len(s.ring)))
		for i := 0; i < s.n; i++ {
			ring[i] = s.ring[(s.head+i)&(len(s.ring)-1)]
		}
		s.ring, s.head = ring, 0
	}
	s.ring[(s.head+s.n)&(len(s.ring)-1)] = o
	s.n++
}

// next runs one occurrence: it queues the next waiting one, if any,
// then calls the stream's callback.
func (s *Stream) next() {
	if s.n == 0 {
		s.queued = false
	} else {
		o := s.ring[s.head]
		s.head = (s.head + 1) & (len(s.ring) - 1)
		s.n--
		s.e.queue.push(entry{at: o.at, key: o.seq, fn: s.fire})
	}
	s.fn()
}
