package ck

import "testing"

// countersSink keeps the view AllocsPerRun takes from being discarded.
var countersSink Counters

// TestCountersOnlyCopies: the counter view is a read. Taking it again
// gives the same value, and taking it allocates nothing.
func TestCountersOnlyCopies(t *testing.T) {
	env := newBusyEnv(t)
	first := env.k.Counters()
	if first.ThreadLoads == 0 || first.ThreadCapacity == 0 {
		t.Fatalf("the busy kernel counted nothing: %+v", first)
	}
	if again := env.k.Counters(); again != first {
		t.Errorf("taking the view moved it:\nfirst %+v\nagain %+v", first, again)
	}
	if raceEnabled {
		return // allocation counts are meaningless under -race instrumentation
	}
	if n := testing.AllocsPerRun(100, func() { countersSink = env.k.Counters() }); n != 0 {
		t.Errorf("Counters allocates %.0f times per call, want 0", n)
	}
}
