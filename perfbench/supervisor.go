package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// supervisor runs scenario lists in child processes, one repetition
// (pass over the list) at a time, and checks that every scenario's
// virtual results repeat. A child that dies charges the scenario it was
// running as failed, and a fresh child resumes after it.
type supervisor struct {
	exe      string        // this program, re-run with -child
	workload string        // workload name passed to the children
	stall    time.Duration // a child silent this long is killed

	first map[uint64]uint64 // scenario seed -> digest of its first run
}

func newSupervisor(exe, workload string) *supervisor {
	return &supervisor{exe: exe, workload: workload, stall: 60 * time.Second, first: map[uint64]uint64{}}
}

// scenarioRun is one scenario as the supervisor saw it.
type scenarioRun struct {
	seed uint64
	ms   float64 // host time, 0 when its child died in it
	out  outcome
}

// childRun is one child process's share of a pass.
type childRun struct {
	setupS    float64   // process start to its first timed scenario
	timedS    float64   // first scenario's start to last scenario's end
	rssMB     float64   // peak resident memory
	end       *childEnd // nil when the child died
	scenarios int
}

// pass is one repetition: the list run once, in as many children as it
// took.
type pass struct {
	scenarios []scenarioRun
	children  []childRun
	digest    uint64 // over every scenario's digest, in list order
}

// rate is the pass's completed scenarios per second of timed host time.
func (p *pass) rate() float64 {
	var s float64
	n := 0
	for _, c := range p.children {
		s += c.timedS
		n += c.scenarios
	}
	if s == 0 {
		return 0
	}
	return float64(n) / s
}

// runPhase runs at least minPasses passes over list, and more while
// another pass, as long as the average so far, still fits in budget.
func (s *supervisor) runPhase(list []uint64, traced bool, budget time.Duration, minPasses int) ([]*pass, error) {
	start := time.Now()
	var passes []*pass
	for {
		n := len(passes)
		if elapsed := time.Since(start); n >= minPasses && elapsed+elapsed/time.Duration(n) > budget {
			return passes, nil
		}
		p, err := s.runPass(list, traced)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
}

// runPass runs list once.
func (s *supervisor) runPass(list []uint64, traced bool) (*pass, error) {
	p := &pass{}
	for next := 0; next < len(list); {
		c, runs, died, err := s.runChild(list[next:], traced)
		if err != nil {
			return nil, err
		}
		p.children = append(p.children, c)
		p.scenarios = append(p.scenarios, runs...)
		next += len(runs)
		if died != "" {
			d := newDigest()
			for i := 0; i < len(died); i++ {
				d.add(uint64(died[i]))
			}
			p.scenarios = append(p.scenarios, scenarioRun{seed: list[next], out: outcome{Digest: uint64(d), Fail: died}})
			next++
		}
	}
	d := newDigest()
	for i := range p.scenarios {
		r := &p.scenarios[i]
		if want, ok := s.first[r.seed]; !ok {
			s.first[r.seed] = r.out.Digest
		} else if r.out.Digest != want && r.out.Fail == "" {
			r.out.Fail = fmt.Sprintf("virtual digest %016x, first run %016x", r.out.Digest, want)
		}
		d.add(r.out.Digest)
	}
	p.digest = uint64(d)
	return p, nil
}

// runChild runs seeds in one child process until they are done or the
// child dies. died is the first line of its panic (or why it was
// stopped) when it died in seeds[len(runs)]; err means the child could
// not run at all.
func (s *supervisor) runChild(seeds []uint64, traced bool) (c childRun, runs []scenarioRun, died string, err error) {
	strs := make([]string, len(seeds))
	for i, v := range seeds {
		strs[i] = strconv.FormatUint(v, 10)
	}
	cmd := exec.Command(s.exe, "-child", "-workload", s.workload,
		"-trace="+strconv.FormatBool(traced), "-scenarios", strings.Join(strs, ","))
	cmd.SysProcAttr = childProcAttr()
	stderr := &headBuffer{max: 64 << 10}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return c, nil, "", err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return c, nil, "", fmt.Errorf("start child: %w", err)
	}

	msgs := make(chan message)
	decodeErr := make(chan error, 1)
	go func() {
		defer close(msgs)
		dec := json.NewDecoder(stdout)
		for {
			var m message
			if err := dec.Decode(&m); err != nil {
				if !errors.Is(err, io.EOF) {
					decodeErr <- err
				}
				return
			}
			msgs <- m
		}
	}()

	ready := false
	stalled := ""
	timer := time.NewTimer(s.stall)
	defer timer.Stop()
	tick := timer.C
	for msgs != nil {
		select {
		case m, ok := <-msgs:
			if !ok {
				msgs = nil
				break
			}
			if tick != nil {
				timer.Reset(s.stall)
			}
			switch m.Ev {
			case "ready":
				ready = true
				c.setupS = time.Since(start).Seconds()
			case "done":
				if m.Out == nil || len(runs) >= len(seeds) {
					continue
				}
				runs = append(runs, scenarioRun{seed: seeds[len(runs)], ms: float64(m.NS) / 1e6, out: *m.Out})
				c.timedS = float64(m.T) / 1e9
			case "end":
				c.end = m.End
			}
		case <-tick:
			tick = nil
			stalled = fmt.Sprintf("stalled: no progress for %v", s.stall)
			_ = cmd.Process.Kill() // an error means it already exited
		}
	}
	waitErr := cmd.Wait()
	c.rssMB = maxRSSMB(cmd.ProcessState)
	c.scenarios = len(runs)
	select {
	case err := <-decodeErr:
		return c, runs, "", fmt.Errorf("child report: %w", err)
	default:
	}
	if !ready {
		return c, nil, "", fmt.Errorf("child set-up failed (%v): %s", waitErr, firstLine(stderr.String(), ""))
	}
	if c.end != nil && waitErr == nil {
		return c, runs, "", nil
	}
	if len(runs) >= len(seeds) {
		return c, runs, "", fmt.Errorf("child failed after its last scenario (%v): %s", waitErr, firstLine(stderr.String(), ""))
	}
	if stalled != "" {
		return c, runs, stalled, nil
	}
	return c, runs, firstLine(stderr.String(), fmt.Sprint(waitErr)), nil
}

// firstLine picks the line that says why a child died: the first panic
// or fatal error line, else the first line, else def.
func firstLine(text, def string) string {
	lines := strings.Split(text, "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "panic: ") || strings.HasPrefix(l, "fatal error: ") {
			return l
		}
	}
	for _, l := range lines {
		if l = strings.TrimSpace(l); l != "" {
			return l
		}
	}
	return def
}

// headBuffer keeps the first max bytes written to it: a dying child's
// panic line comes first, and the goroutine dump after it can be large.
type headBuffer struct {
	buf bytes.Buffer
	max int
}

func (h *headBuffer) Write(p []byte) (int, error) {
	if room := h.max - h.buf.Len(); room > 0 {
		h.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

func (h *headBuffer) String() string { return h.buf.String() }
