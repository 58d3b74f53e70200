package main

import "time"

// span is one timed call from the benchmark into the program.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"` // ns since the tracer's origin
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`   // index of the enclosing span, -1 at top level
	Scenario uint64 `json:"scenario"` // the scenario seed
}

// tracer keeps a traced process's spans in memory until the process
// ends. A nil tracer records nothing, which is how untraced runs call it.
type tracer struct {
	origin   time.Time
	scenario uint64
	open     []int
	spans    []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, Start: time.Since(t.origin).Nanoseconds(),
		Parent: parent, Scenario: t.scenario,
	})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = time.Since(t.origin).Nanoseconds()
	t.open = t.open[:n]
}
