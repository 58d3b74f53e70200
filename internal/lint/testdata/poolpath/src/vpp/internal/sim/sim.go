// Package sim is the poolpath fixture: the pooled event free list
// (evFree) may only grow at an append annotated as its sanctioned
// growth point.
package sim

type event struct{ at uint64 }

type Engine struct {
	evFree []*event
	coros  []int
}

type Cluster struct {
	engines []*Engine
}

// freeEvent is the sanctioned growth point; the annotation suppresses
// the finding and documents the drain point.
func (e *Engine) freeEvent(ev *event) {
	//ckvet:allow poolpath the pool's own refill point; drained by newEvent
	e.evFree = append(e.evFree, ev)
}

func (e *Engine) leakFree(ev *event) {
	e.evFree = append(e.evFree, ev) // want `append to pooled Engine\.evFree`
}

// aliasLeak assigns the append result elsewhere; the pooled backing
// array still grows and is still aliased.
func (e *Engine) aliasLeak(ev *event) []*event {
	return append(e.evFree, ev) // want `append to pooled Engine\.evFree`
}

// addCoro grows a long-lived structure, not a pool.
func (e *Engine) addCoro(c int) {
	e.coros = append(e.coros, c)
}

func (c *Cluster) addEngine(e *Engine) {
	c.engines = append(c.engines, e)
}

func use() {
	e := &Engine{}
	e.freeEvent(&event{})
	e.leakFree(&event{})
	_ = e.aliasLeak(&event{})
	e.addCoro(1)
	c := &Cluster{}
	c.addEngine(e)
}
