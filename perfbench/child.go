package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// message is one line of the child's report on its standard output.
type message struct {
	Ev  string    `json:"ev"`           // "ready", "done" or "end"
	NS  int64     `json:"ns,omitempty"` // done: host time of the scenario
	T   int64     `json:"t,omitempty"`  // done: host time since the first scenario began
	Out *outcome  `json:"out,omitempty"`
	End *childEnd `json:"end,omitempty"`
}

// childEnd is the child's summary once every scenario has run.
type childEnd struct {
	AllocBytes uint64 `json:"alloc_bytes"` // runtime.MemStats.TotalAlloc delta
	GCCycles   uint32 `json:"gc_cycles"`   // runtime.MemStats.NumGC delta

	// Traced children only: host CPU and allocated bytes by layer, and
	// the spans.
	CPUNS      map[string]int64 `json:"cpu_ns,omitempty"`
	AllocByLay map[string]int64 `json:"alloc_by_layer,omitempty"`
	Spans      []span           `json:"spans,omitempty"`
}

// memProfileRate samples one allocation per this many bytes in traced
// children, finer than the runtime's 512 KiB default so a scenario's
// smaller layers register.
const memProfileRate = 64 << 10

// The pprof label on the traced run's extra construction, which the CPU
// attribution leaves out: its time is reported by its own spans.
const probeKey, probeVal = "perfbench", "probe"

// childMain is the worker side: it sets up, runs the given scenarios once
// in order, and reports each on stdout as one JSON message per line.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench -child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	traced := fs.Bool("trace", false, "record spans and profiles")
	list := fs.String("scenarios", "", "comma-separated scenario seeds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced {
		runtime.MemProfileRate = memProfileRate
	}
	w := lookupWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}
	seeds, err := parseSeeds(*list)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := w.warm(); err != nil {
		fmt.Fprintf(os.Stderr, "set-up: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(message{Ev: "ready"}); err != nil {
		return 1
	}

	var tr *tracer
	var prof *profiler
	if *traced {
		tr = newTracer()
		if prof, err = startProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for _, s := range seeds {
		if tr != nil {
			tr.scenario = s
			tr.begin("scenario")
			if err := probe(w, s, tr); err != nil {
				fmt.Fprintf(os.Stderr, "construction probe, scenario %d: %v\n", s, err)
				return 1
			}
		}
		st := time.Now()
		out := w.run(s, tr)
		now := time.Now()
		tr.end()
		msg := message{Ev: "done", NS: now.Sub(st).Nanoseconds(), T: now.Sub(t0).Nanoseconds(), Out: &out}
		if err := enc.Encode(msg); err != nil {
			return 1
		}
	}
	runtime.ReadMemStats(&ms1)
	end := childEnd{AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc, GCCycles: ms1.NumGC - ms0.NumGC}
	if prof != nil {
		if end.CPUNS, end.AllocByLay, err = prof.stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		end.Spans = tr.spans
	}
	if err := enc.Encode(message{Ev: "end", End: &end}); err != nil {
		return 1
	}
	return 0
}

// probe builds scenario s's machine and Cache Kernels once more and drops
// them, timing hw.NewMachine and ck.New on their own. It runs under the
// probe label and with allocation sampling off, so neither profile counts
// the duplicate.
func probe(w *workload, s uint64, tr *tracer) error {
	cfg, kcs := w.topology(s)
	var err error
	pprof.Do(context.Background(), pprof.Labels(probeKey, probeVal), func(context.Context) {
		rate := runtime.MemProfileRate
		runtime.MemProfileRate = 0
		defer func() { runtime.MemProfileRate = rate }()
		tr.begin("hw.new_machine")
		m := hw.NewMachine(cfg)
		tr.end()
		tr.begin("ck.new")
		for i, kc := range kcs {
			if _, err = ck.New(m.MPMs[i], kc); err != nil {
				break
			}
		}
		tr.end()
	})
	return err
}

// profiler holds a traced child's CPU profile and the per-layer
// allocation totals at its start.
type profiler struct {
	cpu    bytes.Buffer
	alloc0 map[string]int64
}

func startProfiles() (*profiler, error) {
	p := &profiler{}
	var err error
	if p.alloc0, err = allocByLayer(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the CPU profile and returns CPU nanoseconds and allocated
// bytes by layer since startProfiles.
func (p *profiler) stop() (cpu, alloc map[string]int64, err error) {
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.cpu.Bytes())
	if err != nil {
		return nil, nil, err
	}
	if cpu, err = prof.byLayer("cpu", probeKey, probeVal); err != nil {
		return nil, nil, err
	}
	alloc1, err := allocByLayer()
	if err != nil {
		return nil, nil, err
	}
	alloc = map[string]int64{}
	for l, v := range alloc1 {
		alloc[l] = v - p.alloc0[l]
	}
	return cpu, alloc, nil
}

// allocByLayer returns the bytes allocated so far, by layer, from the
// allocation profile. The profile is as of the last completed GC, so it
// collects first.
func allocByLayer() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("allocation profile: %w", err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return prof.byLayer("alloc_space", "", "")
}
