package simtest

import (
	"bytes"
	"fmt"
	"math"

	"vpp/internal/aklib"
	"vpp/internal/chaos"
	"vpp/internal/ck"
	"vpp/internal/dsm"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/netboot"
	"vpp/internal/rtk"
	"vpp/internal/sim"
	"vpp/internal/srm"
	"vpp/internal/unixemu"
)

// Harness signal values, well away from every library's own.
const (
	sigTick  uint32 = 0x7C1 // ticker wakeup for tickWait blockers
	sigPing  uint32 = 0x7C2 // pulse service increment
	sigNap   uint32 = 0x7C3 // pulse service self-unload request
	sigStop  uint32 = 0x7C4 // service shutdown
	sigAlarm uint32 = 0x7C5 // alarm listener payload
	sigGo    uint32 = 0x7C6 // echo client release
)

const (
	maxFailures    = 64
	rtkActivations = 12
	dsmBase        = uint32(0x6000_0000)
	dsmRounds      = 12
)

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// harness owns one scenario run: the machine, the per-node state and
// the oracle ledger. Everything below runs under the virtual-time
// engine, one coroutine or event at a time.
type harness struct {
	sc      Scenario
	horizon uint64
	m       *hw.Machine
	inj     *chaos.Injector
	nodes   []*node

	// fault-plan families present, for drop/dup-aware conservation
	drop, dup, corrupt bool

	// opDone counts completions per op (conservation: exactly once).
	opDone []int

	failures []Failure
	trunc    bool
	// panicked records that a coroutine panicked and ended the run
	// midway, so the end-of-run oracles have nothing sound to judge.
	panicked bool

	// lastByName tracks each coroutine's previous dispatch time for the
	// monotonicity oracle. Clocks are per-coroutine (a fresh coroutine
	// starts at cycle 0, behind everyone), so virtual time is monotone
	// per execution context, not across the global dispatch interleaving.
	lastByName map[string]uint64
	monoBad    bool
	sched      sim.TraceHash

	fiber    [2]*dev.FiberPort
	dsmReady [2]bool // per-node: sharer attached
	dsmAt    [2]bool // per-node: ping-pong target reached

	netImage []byte
	netGot   []byte
	netErr   error
	netDone  bool
}

func (h *harness) failf(oracle, format string, args ...any) {
	if len(h.failures) >= maxFailures {
		h.trunc = true
		return
	}
	h.failures = append(h.failures, Failure{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}

// node is the per-MPM state: its Cache Kernel instance, SRM, driver
// kernel and harness services.
type node struct {
	h   *harness
	idx int
	mpm *hw.MPM
	k   *ck.Kernel
	s   *srm.SRM

	aks []*aklib.AppKernel // every application kernel on this node, for coherence

	ak         *aklib.AppKernel // the driver kernel's library
	usid       ck.ObjID         // the driver's op space
	pager      *pager
	traps      uint64
	spawned    []*aklib.Thread // fire-and-forget op threads (they exit)
	ledger     []int           // op indices completed asynchronously
	evictRaces int             // mapflip unloads that lost to concurrent eviction

	waiters    []ck.ObjID // threads blocked in tickWait, re-woken by the ticker
	driverDone bool
	bodyErr    error

	// pulse service
	pulse       *aklib.Thread
	pulseStop   bool
	pulseDone   bool
	pulseCount  int
	pulseNaps   int
	napsDone    int
	napArmed    bool
	pingsPosted int

	// alarm listener
	listener     *aklib.Thread
	listenerStop bool
	listenerDone bool
	alarmsSet    int
	alarmsFired  int
	lastAlarmAt  uint64

	// swap service
	scratch      *srm.Launched
	scratchStop  bool
	scratchDone  bool
	scratchBeats int
	swapper      *aklib.Thread
	swapReq      int
	swapAck      int
	swapStop     bool
	swapDone     bool

	// mixes
	u        *unixemu.Unix
	initPID  int
	unixDone bool
	rtkDone  bool
	rtkStats rtk.TaskStats
	rtkErr   error
	dsmNode  *dsm.Node
	dsmDone  bool
	dsmErr   error

	reports []*srm.RecoveryReport
}

func (n *node) hasUnix() bool { return n.h.sc.Mix.Unix && n.idx == 0 }
func (n *node) hasRTK() bool  { return n.h.sc.Mix.RTK && n.idx == n.h.sc.MPMs-1 }
func (n *node) hasDSM() bool  { return n.h.sc.Mix.DSM && n.h.sc.MPMs >= 2 && n.idx < 2 }

func (n *node) hasSwapOps() bool {
	for _, op := range n.h.sc.Ops {
		if op.Kind == OpSwap && op.MPM == n.idx {
			return true
		}
	}
	return false
}

// hasMixActors reports whether library threads on this node keep making
// Cache Kernel calls while the driver is otherwise done — which rules
// out the mid-run coherence check (a thread parked inside a descriptor
// operation is legitimately between cache and master copy).
func (n *node) hasMixActors() bool { return n.hasUnix() || n.hasRTK() || n.hasDSM() }

// Run executes one scenario and evaluates every oracle. The optional
// trace callback observes the full dispatch schedule (for the
// determinism golden).
func Run(sc Scenario, trace func(name string, at uint64)) *Result {
	return runWith(sc, trace, false)
}

// RunSharded is Run; shards is ignored.
//
// Deprecated: kept only for the benchmark module, which calls it; use
// Run. It goes with the next benchmark change (ROADMAP item 7).
func RunSharded(sc Scenario, trace func(name string, at uint64), shards int) *Result {
	return Run(sc, trace)
}

// runMachine drives the built machine to its horizon. A shrink probe
// runs in virtual-time chunks and stops as soon as a failure is on the
// ledger: failures are recorded at deterministic virtual times, so a
// full run of the same scenario records the same failure, and stopping
// early cannot turn a failing scenario into a passing one. A probe
// that records no failure runs to the end, byte-identical to one
// straight run. A coroutine's panic ends the run and is recorded as a
// "panic" failure naming the coroutine and the panic value; its stack
// holds addresses, which would make the fingerprint differ from run to
// run, so it is left out.
func (h *harness) runMachine(probe bool) error {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(*sim.Panic)
			if !ok {
				panic(r)
			}
			h.panicked = true
			h.failf("panic", "%s: %v", p.Coro, p.Value)
		}
	}()
	if probe {
		chunk := h.horizon/8 + 1
		// Past the ticker retirement point nothing periodic remains; the
		// final unbounded Run below drains whatever is left.
		limit := h.horizon + hw.CyclesFromMicros(100_000)
		for next := h.m.Now() + chunk; next < limit; next += chunk {
			if len(h.failures) > 0 {
				return nil
			}
			if err := h.m.Run(next); err != nil {
				return err
			}
		}
	}
	return h.m.Run(math.MaxUint64)
}

// runWith builds and runs one scenario; probe selects the shrink
// prober's chunked run with its early stop.
func runWith(sc Scenario, trace func(name string, at uint64), probe bool) *Result {
	if sc.Orch != nil {
		return runOrch(sc, trace, probe)
	}
	res := &Result{Scenario: sc}
	h := &harness{sc: sc, horizon: hw.CyclesFromMicros(float64(sc.HorizonUS))}
	for _, f := range sc.Faults {
		switch f.Kind {
		case chaos.DropSignal:
			h.drop = true
		case chaos.DupSignal:
			h.dup = true
		case chaos.CorruptWriteback:
			h.corrupt = true
		}
	}

	cfg := hw.DefaultConfig()
	cfg.MPMs = sc.MPMs
	cfg.CPUsPerMPM = sc.CPUsPerMPM
	h.m = hw.NewMachine(cfg)
	defer h.m.Close()
	h.installTrace(trace)

	var kernels []*ck.Kernel
	for i := 0; i < sc.MPMs; i++ {
		k, err := ck.New(h.m.MPMs[i], ck.Config{
			ThreadSlots:  sc.ThreadSlots,
			MappingSlots: sc.MappingSlots,
		})
		if err != nil {
			h.failf("op", "ck.New mpm %d: %v", i, err)
			res.Failures = h.failures
			return res
		}
		kernels = append(kernels, k)
		h.nodes = append(h.nodes, &node{h: h, idx: i, mpm: h.m.MPMs[i], k: k})
	}
	h.opDone = make([]int, len(sc.Ops))

	h.inj = chaos.New(chaos.Plan{Seed: sc.FaultSeed, Faults: sc.Faults})
	h.inj.Arm(h.m, kernels...)

	if sc.Mix.DSM && sc.MPMs >= 2 {
		h.fiber[0], h.fiber[1] = dev.ConnectFiber(h.m.MPMs[0], h.m.MPMs[1], "dsm")
	}
	if sc.Mix.Netboot {
		h.setupNetboot()
	}

	for _, n := range h.nodes {
		n := n
		s, err := srm.Start(n.k, n.mpm, func(s *srm.SRM, e *hw.Exec) { n.srmMain(s, e) })
		if err != nil {
			h.failf("op", "srm.Start mpm %d: %v", n.idx, err)
			res.Failures = h.failures
			return res
		}
		n.s = s
	}

	h.m.SetMaxSteps(2_000_000_000)
	runErr := h.runMachine(probe)
	h.finish(runErr)
	return h.result(res)
}

// result fills res with the run's failures and fingerprint.
func (h *harness) result(res *Result) *Result {
	res.Failures = h.failures
	res.FailuresTruncated = h.trunc
	res.FinalClock = h.m.Now()
	res.Steps = h.m.Steps()
	res.Dispatches = h.sched.Count()
	res.Hash = h.sched.Sum64()
	res.FaultStats = h.inj.Stats
	return res
}

// installTrace wires the dispatch-schedule observer: the monotonicity
// oracle, the schedule hash, and the caller's trace callback. Shared by
// the op-stream and orchestration families.
func (h *harness) installTrace(trace func(name string, at uint64)) {
	h.lastByName = make(map[string]uint64)
	h.m.SetTraceDispatch(func(name string, at uint64) {
		if last, ok := h.lastByName[name]; ok && at < last && !h.monoBad {
			h.monoBad = true
			h.failf("monotonicity", "dispatch %q at %d after %d: its virtual clock ran backwards", name, at, last)
		}
		h.lastByName[name] = at
		h.sched.Add(name, at)
		if trace != nil {
			trace(name, at)
		}
	})
}

// RunSeed generates and runs one seed.
func RunSeed(seed uint64) *Result { return Run(Generate(seed), nil) }

// SeedWorkload adapts one seed to the exp determinism goldens: it runs
// the seed's scenario and returns the final clock and step count, and
// an error carrying the fingerprint if any oracle fired.
func SeedWorkload(seed uint64) func(trace func(name string, at uint64)) (uint64, uint64, error) {
	return func(trace func(name string, at uint64)) (uint64, uint64, error) {
		r := Run(Generate(seed), trace)
		if r.Failed() {
			return r.FinalClock, r.Steps, fmt.Errorf("cksim seed %d failed:\n%s", seed, r.Fingerprint())
		}
		return r.FinalClock, r.Steps, nil
	}
}

// setupNetboot wires two NICs on node 0 and schedules a TFTP image
// fetch; the image content derives from the scenario seed.
func (h *harness) setupNetboot() {
	wire := dev.NewWire()
	nicA := dev.AttachNIC(h.m.MPMs[0], wire, dev.MAC{2, 0, 0, 0, 0, 1})
	nicB := dev.AttachNIC(h.m.MPMs[0], wire, dev.MAC{2, 0, 0, 0, 0, 2})
	sa := netboot.NewStack("bootc", nicA, netboot.IP{10, 0, 0, 1})
	sb := netboot.NewStack("boots", nicB, netboot.IP{10, 0, 0, 2})
	sa.Start(h.m.MPMs[0])
	sb.Start(h.m.MPMs[0])
	for _, f := range h.sc.Faults {
		if f.Kind == chaos.DropFrame || f.Kind == chaos.DupFrame || f.Kind == chaos.DelayFrame {
			h.inj.ArmNIC(nicA)
			h.inj.ArmNIC(nicB)
			break
		}
	}
	h.netImage = make([]byte, 3000)
	r := sim.NewRand(h.sc.Seed ^ 0x696d616765) // decorrelate from the scenario stream
	for i := range h.netImage {
		h.netImage[i] = byte(r.Uint64())
	}
	srv := netboot.NewTFTPServer(sb, map[string][]byte{"vmunix": h.netImage})
	h.m.MPMs[0].NewDeviceExec("simtest/tftpd", func(e *hw.Exec) { _ = srv.Serve(e) })
	h.m.MPMs[0].NewDeviceExec("simtest/bootclient", func(e *hw.Exec) {
		e.Charge(2000)
		h.netGot, h.netErr = netboot.TFTPGet(e, sa, netboot.IP{10, 0, 0, 2}, "vmunix", 2001)
		h.netDone = true
		srv.Stop()
		sa.Stop()
		sb.Stop()
	})
}

// srmMain is each node's SRM boot body: launch the services and mixes,
// then return so a crash finds nothing of the SRM to strand.
func (n *node) srmMain(s *srm.SRM, e *hw.Exec) {
	n.s = s
	n.aks = append(n.aks, s.AppKernel)
	if n.hasSwapOps() {
		n.launchScratch(e)
		n.startSwapper(e)
	}
	if n.hasUnix() {
		n.launchUnix(e)
	}
	if n.hasRTK() {
		n.launchRTK(e)
	}
	if n.hasDSM() {
		n.launchDSM(e)
	}
	n.launchDriver(e)
	n.startTicker()
	if n.h.sc.Crash {
		s.Guard(srm.GuardConfig{
			Interval: hw.CyclesFromMicros(250),
			Until:    n.h.horizon,
			OnRecovered: func(r *srm.RecoveryReport) {
				n.reports = append(n.reports, r)
			},
		})
	}
}

// quiet reports whether everything the ticker serves on this node has
// finished.
func (n *node) quiet() bool {
	if !n.driverDone || len(n.waiters) > 0 {
		return false
	}
	if n.hasUnix() && !n.unixDone {
		return false
	}
	if n.hasRTK() && !n.rtkDone {
		return false
	}
	if n.hasDSM() && !n.dsmDone {
		return false
	}
	if n.idx == 0 && n.h.sc.Mix.Netboot && !n.h.netDone {
		return false
	}
	return true
}

// startTicker runs a device execution that periodically re-wakes every
// tickWait blocker. Device executions consume no simulated CPU, so the
// ticker cannot starve anyone; re-posting every period also makes the
// waits immune to dropped signals (the fault windows are bounded).
func (n *node) startTicker() {
	limit := n.h.horizon + hw.CyclesFromMicros(50_000)
	n.mpm.NewDeviceExec(fmt.Sprintf("simtest/ticker%d", n.idx), func(e *hw.Exec) {
		for e.Now() < limit {
			if n.quiet() {
				return
			}
			e.Charge(hw.CyclesFromMicros(150))
			for _, tid := range n.waiters {
				n.k.RaiseDeviceSignal(tid, sigTick)
			}
		}
	})
}

// tickWait blocks the calling Cache Kernel thread until cond holds or
// the deadline passes, waking on ticker signals. WaitSignal drains the
// queue before blocking, so a signal posted between the cond check and
// the block is never missed.
func (n *node) tickWait(e *hw.Exec, deadline uint64, cond func() bool) bool {
	for {
		if cond() {
			return true
		}
		if e.Now() >= deadline {
			return false
		}
		tid := n.k.CurrentThread(e)
		if tid == 0 {
			e.Charge(hw.CyclesFromMicros(100))
			continue
		}
		n.waiters = append(n.waiters, tid)
		_, err := n.k.WaitSignal(e)
		n.unwait(tid)
		if err != nil {
			return cond()
		}
		n.k.SignalReturn(e)
	}
}

func (n *node) unwait(tid ck.ObjID) {
	for i, w := range n.waiters {
		if w == tid {
			n.waiters = append(n.waiters[:i], n.waiters[i+1:]...)
			return
		}
	}
}

// signalUntil posts value to the (possibly reloading) thread named by
// tid until cond holds. Conditions are level-based, so re-posts after a
// dropped or slow delivery are harmless.
func (n *node) signalUntil(e *hw.Exec, tid func() ck.ObjID, value uint32, cond func() bool) bool {
	for {
		if cond() {
			return true
		}
		if e.Now() >= n.h.horizon {
			return false
		}
		if t := tid(); t != 0 {
			if err := n.k.PostSignal(e, t, value); err != nil {
				if err != ck.ErrInvalidID {
					n.opFail("post signal %#x to %v: %v", value, t, err)
					return cond()
				}
			} else if value == sigPing {
				n.pingsPosted++
			}
		}
		n.tickWait(e, minU64(e.Now()+hw.CyclesFromMicros(400), n.h.horizon), cond)
	}
}

// opFail records an op failure; after a scripted crash the op state
// died with the instance, so residual failures are expected and
// suppressed.
func (n *node) opFail(format string, args ...any) {
	if n.h.sc.Crash && n.k.Epoch > 0 {
		return
	}
	n.h.failf("op", fmt.Sprintf("mpm %d: ", n.idx)+format, args...)
}

// pager demand-loads the driver op space: a registry of exact mapping
// specs (echo pages) plus page windows backed by frames allocated on
// first fault. Evicted mappings fault back in through here, exercising
// the eviction/writeback/reload cycle the oracles check.
type pwindow struct {
	base  uint32
	pages uint32
}

type pager struct {
	n       *node
	ak      *aklib.AppKernel
	specs   map[uint32]ck.MappingSpec
	frames  map[uint32]uint32
	windows []pwindow
	demand  int
}

func (p *pager) addWindow(base, pages uint32) {
	p.windows = append(p.windows, pwindow{base: base, pages: pages})
}

func (p *pager) fault(e *hw.Exec, thread, space ck.ObjID, va uint32, write bool, kind hw.Fault) (bool, bool) {
	if space != p.n.usid {
		return false, false
	}
	pva := va &^ uint32(hw.PageSize-1)
	if spec, ok := p.specs[pva]; ok {
		return true, p.n.k.LoadMappingAndResume(e, space, spec) == nil
	}
	for _, w := range p.windows {
		if pva >= w.base && pva < w.base+w.pages*hw.PageSize {
			pfn, ok := p.frames[pva]
			if !ok {
				if pfn, ok = p.ak.Frames.Alloc(); !ok {
					return true, false
				}
				p.frames[pva] = pfn
			}
			p.demand++
			return true, p.n.k.LoadMappingAndResume(e, space, ck.MappingSpec{
				VA: pva, PFN: pfn, Writable: true, Cachable: true,
			}) == nil
		}
	}
	return false, false
}

// launchDriver boots the per-node driver kernel that executes this
// node's slice of the op stream. Locked: the driver is the harness's
// agent and must not be evicted out from under its own ops.
func (n *node) launchDriver(e *hw.Exec) {
	l, err := n.s.Launch(e, "drv", srm.LaunchOpts{Groups: 8, MainPrio: 36, MaxPrio: 40, Locked: true},
		func(ak *aklib.AppKernel, me *hw.Exec) {
			// A crash can kill this thread; the revived context reruns
			// the closure, so setup happens only on the first pass.
			if n.pager == nil {
				n.ak = ak
				n.pager = &pager{n: n, ak: ak, specs: map[uint32]ck.MappingSpec{}, frames: map[uint32]uint32{}}
				ak.OnFault = n.pager.fault
				ak.OnTrap = func(te *hw.Exec, thread ck.ObjID, no uint32, args []uint32) (uint32, uint32) {
					n.traps++
					return 0, 0
				}
				usid, lerr := n.k.LoadSpace(me, true)
				if lerr != nil {
					n.bodyErr = fmt.Errorf("load op space: %w", lerr)
					return
				}
				n.usid = usid
				n.runOps(ak, me)
			}
			n.driverDone = true
		})
	if err != nil {
		n.bodyErr = err
		return
	}
	n.aks = append(n.aks, l.AK)
}

// runOps executes this node's ops sequentially, checking kernel
// invariants after each; then drains asynchronous completions, runs the
// mid-run coherence oracle when the node is harness-only, and shuts the
// services down.
func (n *node) runOps(ak *aklib.AppKernel, me *hw.Exec) {
	sc := &n.h.sc
	for i := range sc.Ops {
		if sc.Ops[i].MPM != n.idx {
			continue
		}
		if sc.Crash && n.k.Epoch > 0 {
			break
		}
		n.runOp(ak, me, i, sc.Ops[i])
		if err := n.k.CheckInvariants(); err != nil {
			n.h.failf("invariants", "mpm %d after op %d (%v): %v", n.idx, i, sc.Ops[i].Kind, err)
		}
	}
	n.tickWait(me, n.h.horizon, func() bool {
		if sc.Crash && n.k.Epoch > 0 {
			return true
		}
		for _, i := range n.ledger {
			if n.h.opDone[i] == 0 {
				return false
			}
		}
		return true
	})
	if sc.Crash && n.k.Epoch > 0 {
		return
	}
	// Let op threads unwind fully (they exit right after bumping their
	// ledger entry) so the coherence snapshot sees only parked services.
	n.tickWait(me, n.h.horizon, func() bool {
		for _, th := range n.spawned {
			if th.Exec != nil && !th.Exec.Finished() {
				return false
			}
		}
		return true
	})
	if !n.hasMixActors() {
		n.h.checkCoherence(n, "mid-run")
		if err := n.k.CheckInvariants(); err != nil {
			n.h.failf("invariants", "mpm %d mid-run: %v", n.idx, err)
		}
	}
	n.shutdownServices(me)
}

func (n *node) runOp(ak *aklib.AppKernel, me *hw.Exec, i int, op Op) {
	switch op.Kind {
	case OpPause:
		me.Charge(hw.CyclesFromMicros(float64(op.DelayUS)))
		n.h.opDone[i]++
	case OpWorker, OpStorm:
		n.opWorker(ak, me, i, op)
	case OpMapFlip:
		n.opMapFlip(ak, me, i, op)
	case OpEcho:
		n.opEcho(ak, me, i, op)
	case OpPulse:
		n.opPulse(ak, me, i, op)
	case OpSwap:
		n.opSwap(me, i, op)
	case OpAlarm:
		n.opAlarm(ak, me, i, op)
	default:
		n.opFail("op %d: unknown kind %v", i, op.Kind)
	}
}

// opWorker spawns a thread that demand-faults its window (stores so the
// mappings come back dirty and write back on eviction) and exits via a
// trap to its kernel.
func (n *node) opWorker(ak *aklib.AppKernel, me *hw.Exec, i int, op Op) {
	base := uint32(0x7000_0000) | uint32(i)<<20
	n.pager.addWindow(base, uint32(op.Pages))
	pages, laps := op.Pages, op.Laps
	w := ak.NewThread(fmt.Sprintf("w%d", i), n.usid, op.Prio, func(we *hw.Exec) {
		for lap := 0; lap < laps; lap++ {
			for p := 0; p < pages; p++ {
				we.Store32(base+uint32(p)*hw.PageSize, uint32(lap*pages+p))
			}
			we.Charge(hw.CyclesFromMicros(100))
		}
		we.Trap(0x77, uint32(i))
		n.h.opDone[i]++
	})
	if err := w.Load(me, false); err != nil {
		n.opFail("op %d: load worker: %v", i, err)
		return
	}
	n.spawned = append(n.spawned, w)
	n.ledger = append(n.ledger, i)
}

// opMapFlip loads then immediately unloads mappings, checking the
// unloaded state round-trips. A concurrent eviction can win the race;
// that is counted, not failed.
func (n *node) opMapFlip(ak *aklib.AppKernel, me *hw.Exec, i int, op Op) {
	base := uint32(0x7800_0000) | uint32(i)<<16
	for p := 0; p < op.Pages; p++ {
		va := base + uint32(p)*hw.PageSize
		pfn, ok := ak.Frames.Alloc()
		if !ok {
			n.opFail("op %d: out of frames", i)
			break
		}
		if err := n.k.LoadMapping(me, n.usid, ck.MappingSpec{VA: va, PFN: pfn, Writable: true, Cachable: true}); err != nil {
			n.opFail("op %d: load mapping %#x: %v", i, va, err)
			ak.Frames.Free(pfn)
			continue
		}
		st, err := n.k.UnloadMapping(me, n.usid, va)
		if err != nil {
			n.evictRaces++
		} else if st.VA != va || st.PFN != pfn {
			n.h.failf("coherence", "mpm %d op %d: mapping state round-trip: got va %#x pfn %d, want va %#x pfn %d",
				n.idx, i, st.VA, st.PFN, va, pfn)
		}
		ak.Frames.Free(pfn)
	}
	n.h.opDone[i]++
}

// opEcho runs IPC rounds between a client and server thread over two
// message-page channels (the paper's memory-based messaging, same
// layout as the boot-echo experiment): each direction is one frame
// mapped twice, a read-only message mapping carrying the signal record
// naming the receiver and a writable message alias the sender stores
// through. A store delivers the stored value as a signal.
func (n *node) opEcho(ak *aklib.AppKernel, me *hw.Exec, i int, op Op) {
	base := uint32(0x5000_0000) | uint32(i)<<18
	recvVA, sendVA := base, base+0x10000
	replyVA, replySendVA := base+0x20000, base+0x30000
	pfnA, okA := ak.Frames.Alloc()
	pfnB, okB := ak.Frames.Alloc()
	if !okA || !okB {
		n.opFail("op %d: out of frames", i)
		return
	}
	rounds := op.Rounds
	srv := ak.NewThread(fmt.Sprintf("echo%ds", i), n.usid, 31, func(se *hw.Exec) {
		for r := 1; r <= rounds; r++ {
			v, err := n.k.WaitSignal(se)
			if err != nil {
				return
			}
			if v == recvVA { // address-valued signal: the written page
				se.Instr(10)
				se.Store32(replySendVA, se.Load32(recvVA)+1000)
			}
			n.k.SignalReturn(se)
		}
	})
	if err := srv.Load(me, false); err != nil {
		n.opFail("op %d: load echo server: %v", i, err)
		return
	}
	n.spawned = append(n.spawned, srv)
	cli := ak.NewThread(fmt.Sprintf("echo%dc", i), n.usid, 30, func(ce *hw.Exec) {
		// Hold for the go signal: the channel mappings load after this
		// thread (its identifier is in the reply signal record).
		for {
			v, err := n.k.WaitSignal(ce)
			if err != nil {
				return
			}
			n.k.SignalReturn(ce)
			if v == sigGo {
				break
			}
		}
		for r := 1; r <= rounds; r++ {
			ce.Store32(sendVA, uint32(r))
			for {
				v, err := n.k.WaitSignal(ce)
				if err != nil {
					return
				}
				ce.Instr(4)
				n.k.SignalReturn(ce)
				if v == replyVA && ce.Load32(replyVA) == uint32(r)+1000 {
					break
				}
			}
		}
		n.h.opDone[i]++
	})
	if err := cli.Load(me, false); err != nil {
		n.opFail("op %d: load echo client: %v", i, err)
		return
	}
	n.spawned = append(n.spawned, cli)
	specs := []ck.MappingSpec{
		{VA: recvVA, PFN: pfnA, Message: true, Locked: true, SignalThread: srv.TID},
		{VA: sendVA, PFN: pfnA, Writable: true, Message: true, Locked: true},
		{VA: replyVA, PFN: pfnB, Message: true, Locked: true, SignalThread: cli.TID},
		{VA: replySendVA, PFN: pfnB, Writable: true, Message: true, Locked: true},
	}
	for _, spec := range specs {
		if err := n.k.LoadMapping(me, n.usid, spec); err != nil {
			n.opFail("op %d: load echo mapping %#x: %v", i, spec.VA, err)
			return
		}
	}
	if err := n.k.PostSignal(me, cli.TID, sigGo); err != nil {
		n.opFail("op %d: echo go signal: %v", i, err)
		return
	}
	n.ledger = append(n.ledger, i)
}

// startPulse lazily creates the pulse service thread: a signal loop
// that can also self-unload its descriptor (the unixemu sleep idiom)
// for the driver to reload.
func (n *node) startPulse(ak *aklib.AppKernel, me *hw.Exec) {
	p := ak.NewThread("pulse", n.usid, 33, func(pe *hw.Exec) {
		for {
			v, err := n.k.WaitSignal(pe)
			if err != nil {
				return
			}
			n.k.SignalReturn(pe)
			switch v {
			case sigPing:
				n.pulseCount++
			case sigNap:
				if !n.napArmed {
					break
				}
				n.napArmed = false
				n.pulse.MarkUnloaded()
				tid := n.k.CurrentThread(pe)
				if _, err := n.k.UnloadThread(pe, tid); err != nil {
					n.opFail("pulse self-unload: %v", err)
					break
				}
				// Parked here; the driver's reload resumes us.
				n.pulseNaps++
			case sigStop:
				if n.pulseStop {
					n.pulseDone = true
					return
				}
			}
		}
	})
	if err := p.Load(me, false); err != nil {
		n.opFail("load pulse service: %v", err)
		return
	}
	n.pulse = p
}

func (n *node) pulseTID() ck.ObjID {
	if n.pulse != nil && n.pulse.Loaded {
		return n.pulse.TID
	}
	return 0
}

// opPulse pings the pulse service; with a delay it first forces a
// descriptor nap: the service unloads itself, the driver waits, reloads
// the record and confirms the thread resumed exactly where it parked.
func (n *node) opPulse(ak *aklib.AppKernel, me *hw.Exec, i int, op Op) {
	if n.pulse == nil {
		n.startPulse(ak, me)
		if n.pulse == nil {
			return
		}
	}
	if op.DelayUS > 0 {
		before := n.pulseNaps
		n.napArmed = true
		if !n.signalUntil(me, n.pulseTID, sigNap, func() bool { return !n.pulse.Loaded }) {
			n.opFail("op %d: pulse nap not taken", i)
		} else {
			me.Charge(hw.CyclesFromMicros(float64(op.DelayUS)))
			if err := n.pulse.Load(me, false); err != nil {
				n.opFail("op %d: pulse reload: %v", i, err)
				return
			}
			if !n.tickWait(me, n.h.horizon, func() bool { return n.pulseNaps > before }) {
				n.h.failf("conservation", "mpm %d op %d: pulse thread did not resume after reload", n.idx, i)
				return
			}
			n.napsDone++
		}
	}
	for j := 0; j < op.Rounds; j++ {
		before := n.pulseCount
		if !n.signalUntil(me, n.pulseTID, sigPing, func() bool { return n.pulseCount > before }) {
			n.opFail("op %d: ping %d never observed", i, j)
			return
		}
	}
	n.h.opDone[i]++
}

// opSwap asks the swapper (an SRM-authority service) for whole-kernel
// swap/unswap cycles of the scratch kernel.
func (n *node) opSwap(me *hw.Exec, i int, op Op) {
	if n.swapper == nil || n.scratch == nil {
		n.opFail("op %d: swap service unavailable", i)
		return
	}
	n.swapReq += op.Rounds
	if !n.tickWait(me, n.h.horizon, func() bool { return n.swapAck >= n.swapReq }) {
		n.opFail("op %d: %d swap cycle(s) still pending", i, n.swapReq-n.swapAck)
		return
	}
	n.h.opDone[i]++
}

// startListener lazily creates the alarm listener thread.
func (n *node) startListener(ak *aklib.AppKernel, me *hw.Exec) {
	l := ak.NewThread("alarms", n.usid, 32, func(le *hw.Exec) {
		for {
			v, err := n.k.WaitSignal(le)
			if err != nil {
				return
			}
			n.k.SignalReturn(le)
			switch v {
			case sigAlarm:
				n.alarmsFired++
			case sigStop:
				if n.listenerStop {
					n.listenerDone = true
					return
				}
			}
		}
	})
	if err := l.Load(me, false); err != nil {
		n.opFail("load alarm listener: %v", err)
		return
	}
	n.listener = l
}

// opAlarm sets absolute-virtual-time alarms on the listener.
func (n *node) opAlarm(ak *aklib.AppKernel, me *hw.Exec, i int, op Op) {
	if n.listener == nil {
		n.startListener(ak, me)
		if n.listener == nil {
			return
		}
	}
	for j := 0; j < op.Rounds; j++ {
		at := me.Now() + hw.CyclesFromMicros(float64(op.DelayUS*(j+1)))
		if at >= n.h.horizon {
			break
		}
		if err := n.k.SetAlarm(me, n.listener.TID, at, sigAlarm); err != nil {
			n.opFail("op %d: set alarm: %v", i, err)
			continue
		}
		n.alarmsSet++
		if at > n.lastAlarmAt {
			n.lastAlarmAt = at
		}
	}
	n.h.opDone[i]++
}

// shutdownServices retires the node's long-lived service threads in
// order, verifying each acknowledges.
func (n *node) shutdownServices(me *hw.Exec) {
	if n.listener != nil {
		if n.lastAlarmAt > 0 {
			// Let outstanding alarms land (bounded; under DropSignal some
			// never will, which the conservation accounting allows).
			n.tickWait(me, minU64(n.lastAlarmAt+hw.CyclesFromMicros(3000), n.h.horizon),
				func() bool { return n.alarmsFired >= n.alarmsSet })
		}
		n.listenerStop = true
		if !n.signalUntil(me, func() ck.ObjID {
			if n.listener.Loaded {
				return n.listener.TID
			}
			return 0
		}, sigStop, func() bool { return n.listenerDone }) {
			n.h.failf("conservation", "mpm %d: alarm listener did not stop", n.idx)
		}
	}
	if n.pulse != nil {
		n.pulseStop = true
		if !n.signalUntil(me, n.pulseTID, sigStop, func() bool { return n.pulseDone }) {
			n.h.failf("conservation", "mpm %d: pulse service did not stop", n.idx)
		}
	}
	if n.swapper != nil {
		n.swapStop = true
		if !n.tickWait(me, n.h.horizon, func() bool { return n.swapDone }) {
			n.h.failf("conservation", "mpm %d: swapper did not stop", n.idx)
		}
	}
	if n.scratch != nil {
		n.scratchStop = true
		if !n.tickWait(me, n.h.horizon, func() bool { return n.scratchDone }) {
			n.h.failf("conservation", "mpm %d: scratch kernel did not stop", n.idx)
		}
	}
}

// launchScratch boots the kernel the swapper swaps in and out: its main
// idles at the lowest priority so it is always safely interruptible.
func (n *node) launchScratch(e *hw.Exec) {
	l, err := n.s.Launch(e, "scratch", srm.LaunchOpts{Groups: 2, MainPrio: 5},
		func(ak *aklib.AppKernel, me *hw.Exec) {
			for !n.scratchStop && me.Now() < n.h.horizon {
				me.Charge(hw.CyclesFromMicros(500))
				n.scratchBeats++
			}
			n.scratchDone = true
		})
	if err != nil {
		n.bodyErr = fmt.Errorf("launch scratch: %w", err)
		return
	}
	n.scratch = l
	n.aks = append(n.aks, l.AK)
}

// startSwapper runs an SRM-space thread (swap authority) that performs
// one scratch swap/unswap cycle per pending request, sleeping on a
// self-alarm between polls.
func (n *node) startSwapper(e *hw.Exec) {
	sw := n.s.NewThread("swapper", n.s.SpaceID, 44, func(se *hw.Exec) {
		for !n.swapStop && se.Now() < n.h.horizon {
			tid := n.k.CurrentThread(se)
			if err := n.k.SetAlarm(se, tid, se.Now()+hw.CyclesFromMicros(300), sigTick); err != nil {
				break
			}
			if _, err := n.k.WaitSignal(se); err != nil {
				break
			}
			n.k.SignalReturn(se)
			for n.swapReq > n.swapAck {
				if err := n.s.Swap(se, "scratch"); err != nil {
					n.opFail("swap scratch: %v", err)
					n.swapAck = n.swapReq
					break
				}
				se.Charge(hw.CyclesFromMicros(200))
				if err := n.s.Unswap(se, "scratch"); err != nil {
					n.opFail("unswap scratch: %v", err)
					n.swapAck = n.swapReq
					break
				}
				n.swapAck++
			}
		}
		n.swapDone = true
	})
	if err := sw.Load(e, false); err != nil {
		n.bodyErr = fmt.Errorf("load swapper: %w", err)
		return
	}
	n.swapper = sw
}

// launchUnix boots the UNIX emulator with the recovery experiment's
// process tree (a quick hello, a sleeper, a compute loop, an init that
// reaps them) on node 0.
func (n *node) launchUnix(e *hw.Exec) {
	crunchLaps, crunchUS := uint32(30), 300.0
	if n.h.sc.Crash {
		// Long enough that the scripted crash lands mid-compute.
		crunchLaps, crunchUS = 80, 500.0
	}
	l, err := n.s.Launch(e, "unix", srm.LaunchOpts{Groups: 16, MainPrio: 31, MaxPrio: 34},
		func(ak *aklib.AppKernel, me *hw.Exec) {
			// Crash-revival reruns this closure; set up only once.
			if n.u == nil {
				n.u = unixemu.New(ak, unixemu.DefaultConfig())
				if err := n.u.StartScheduler(me); err != nil {
					n.bodyErr = err
					return
				}
				n.u.RegisterProgram("hello", func(env *unixemu.ProcEnv) {
					env.WriteString(1, fmt.Sprintf("hello from pid %d\n", env.Getpid()))
				})
				n.u.RegisterProgram("napper", func(env *unixemu.ProcEnv) {
					env.Sleep(40)
					env.WriteString(1, fmt.Sprintf("napper pid %d rested\n", env.Getpid()))
				})
				n.u.RegisterProgram("crunch", func(env *unixemu.ProcEnv) {
					env.Sbrk(4 * hw.PageSize)
					for lap := uint32(0); lap < crunchLaps; lap++ {
						env.Store32(env.HeapBase()+lap%4*hw.PageSize, lap)
						env.Exec().Charge(hw.CyclesFromMicros(crunchUS))
					}
					env.WriteString(1, fmt.Sprintf("crunch pid %d done\n", env.Getpid()))
				})
				n.u.RegisterProgram("init", func(env *unixemu.ProcEnv) {
					env.Spawn("hello")
					env.Spawn("napper")
					env.Spawn("crunch")
					for i := 0; i < 3; i++ {
						env.Wait()
					}
					env.WriteString(1, "init: all children reaped\n")
				})
				p, perr := n.u.Spawn(me, "init", nil)
				if perr != nil {
					n.bodyErr = perr
					return
				}
				n.initPID = p.PID()
			}
			for q := n.u.Proc(n.initPID); q != nil && !q.Exited() && me.Now() < n.h.horizon; q = n.u.Proc(n.initPID) {
				me.Charge(hw.CyclesFromMicros(2000))
			}
			n.u.StopScheduler()
			q := n.u.Proc(n.initPID)
			n.unixDone = q == nil || q.Exited()
		})
	if err != nil {
		n.bodyErr = err
		return
	}
	n.aks = append(n.aks, l.AK)
}

// launchRTK boots a locked real-time kernel running one periodic task;
// the caller's spin waits at a sub-worker priority so it never starves
// the op stream.
func (n *node) launchRTK(e *hw.Exec) {
	l, err := n.s.Launch(e, "rt", srm.LaunchOpts{Groups: 2, MainPrio: 12, Locked: true},
		func(ak *aklib.AppKernel, me *hw.Exec) {
			rt, rerr := rtk.New(me, ak, 2)
			if rerr != nil {
				n.rtkErr = rerr
				n.rtkDone = true
				return
			}
			n.rtkStats, n.rtkErr = rt.RunTask(me, rtk.TaskConfig{
				Name: "control", PeriodUS: 500, BudgetCycles: 4000,
				Activations: rtkActivations, Priority: 45,
			})
			n.rtkDone = true
		})
	if err != nil {
		n.bodyErr = err
		return
	}
	n.aks = append(n.aks, l.AK)
}

// launchDSM attaches one distributed-shared-memory node and ping-pongs
// a counter with its peer across the fiber until a shared target.
func (n *node) launchDSM(e *hw.Exec) {
	port := n.h.fiber[n.idx]
	idx := n.idx
	l, err := n.s.Launch(e, "dsmk", srm.LaunchOpts{Groups: 4, MainPrio: 11},
		func(ak *aklib.AppKernel, me *hw.Exec) {
			nd, derr := dsm.Attach(me, ak, port, idx, dsmBase, 2)
			if derr != nil {
				n.dsmErr = derr
				n.dsmDone = true
				return
			}
			n.dsmNode = nd
			// Barrier: both sharers attached before the first fetch.
			n.h.dsmReadySet(idx)
			if !n.tickWait(me, n.h.horizon, func() bool { return n.h.dsmReadyBoth() }) {
				n.dsmErr = fmt.Errorf("dsm peer never attached")
				n.dsmDone = true
				return
			}
			ok := false
			for me.Now() < n.h.horizon {
				v := me.Load32(dsmBase)
				if v >= dsmRounds {
					ok = true
					break
				}
				if int(v%2) != idx {
					me.Charge(3000)
					continue
				}
				me.Store32(dsmBase, v+1)
			}
			n.h.dsmAt[idx] = ok
			// Keep serving the peer until it also reaches the target.
			n.tickWait(me, n.h.horizon, func() bool { return n.h.dsmAt[0] && n.h.dsmAt[1] })
			nd.Stop(me)
			if !ok {
				n.dsmErr = fmt.Errorf("ping-pong stalled at %d of %d", me.Load32(dsmBase), dsmRounds)
			}
			n.dsmDone = true
		})
	if err != nil {
		n.bodyErr = err
		return
	}
	n.aks = append(n.aks, l.AK)
}

func (h *harness) dsmReadySet(idx int) { h.dsmReady[idx] = true }
func (h *harness) dsmReadyBoth() bool  { return h.dsmReady[0] && h.dsmReady[1] }

// finish runs the end-of-run oracles over the quiesced machine, unless
// a coroutine panic stopped it.
func (h *harness) finish(runErr error) {
	if h.panicked {
		return
	}
	if runErr != nil {
		h.failf("liveness", "engine halted: %v", runErr)
	}
	for _, n := range h.nodes {
		n.checkConservation()
		h.checkCoherence(n, "final")
		if err := n.k.CheckInvariants(); err != nil {
			h.failf("invariants", "mpm %d final: %v", n.idx, err)
		}
	}
}

// checkConservation verifies nothing was lost or duplicated: every op
// completed exactly once, every service acknowledged shutdown, alarm
// and ping deliveries match posts (modulo armed drop/dup faults), and
// the mixes ran to completion.
func (n *node) checkConservation() {
	h, sc := n.h, &n.h.sc
	if n.bodyErr != nil {
		h.failf("op", "mpm %d setup: %v", n.idx, n.bodyErr)
	}
	if sc.Crash {
		if len(n.reports) != 1 {
			h.failf("conservation", "mpm %d: %d recoveries, want exactly 1", n.idx, len(n.reports))
		} else if n.reports[0].Err != nil {
			h.failf("conservation", "mpm %d: recovery failed: %v", n.idx, n.reports[0].Err)
		}
		if n.k.Epoch != 1 {
			h.failf("conservation", "mpm %d: epoch %d after one scripted crash", n.idx, n.k.Epoch)
		}
		if h.inj.Stats.Crashes != 1 {
			h.failf("conservation", "mpm %d: injector crashed %d times, want 1", n.idx, h.inj.Stats.Crashes)
		}
		for i := range sc.Ops {
			if sc.Ops[i].MPM == n.idx && h.opDone[i] > 1 {
				h.failf("conservation", "op %d (%v) completed %d times", i, sc.Ops[i].Kind, h.opDone[i])
			}
		}
		if !n.driverDone {
			h.failf("conservation", "mpm %d: driver did not complete after recovery", n.idx)
		}
		if n.hasUnix() && !n.unixDone {
			h.failf("conservation", "mpm %d: unix workload did not complete after recovery", n.idx)
		}
		return
	}
	if !n.driverDone {
		h.failf("conservation", "mpm %d: driver did not finish its op stream", n.idx)
	}
	for i := range sc.Ops {
		if sc.Ops[i].MPM != n.idx {
			continue
		}
		if h.opDone[i] != 1 {
			h.failf("conservation", "op %d (%v) completed %d times, want exactly 1", i, sc.Ops[i].Kind, h.opDone[i])
		}
	}
	if n.hasUnix() {
		if !n.unixDone {
			h.failf("conservation", "mpm %d: unix init did not exit", n.idx)
		}
		if n.u != nil && n.u.Restarts != 0 {
			h.failf("conservation", "mpm %d: %d unix processes restarted without a crash", n.idx, n.u.Restarts)
		}
	}
	if n.hasRTK() {
		if !n.rtkDone {
			h.failf("conservation", "mpm %d: rt task did not finish", n.idx)
		}
		if n.rtkErr != nil {
			h.failf("op", "mpm %d: rt task: %v", n.idx, n.rtkErr)
		} else if n.rtkDone && n.rtkStats.Activations != rtkActivations {
			h.failf("conservation", "mpm %d: rt task ran %d activations, want %d", n.idx, n.rtkStats.Activations, rtkActivations)
		}
	}
	if n.hasDSM() {
		if !n.dsmDone {
			h.failf("conservation", "mpm %d: dsm sharer did not finish", n.idx)
		}
		if n.dsmErr != nil {
			h.failf("op", "mpm %d: dsm: %v", n.idx, n.dsmErr)
		}
	}
	if n.idx == 0 && sc.Mix.Netboot {
		if !h.netDone {
			h.failf("conservation", "netboot fetch did not complete")
		} else if h.netErr != nil {
			h.failf("op", "netboot fetch: %v", h.netErr)
		} else if !bytes.Equal(h.netGot, h.netImage) {
			h.failf("conservation", "netboot image mismatch: fetched %d bytes, want %d", len(h.netGot), len(h.netImage))
		}
	}
	if n.swapper != nil {
		if !n.swapDone {
			h.failf("conservation", "mpm %d: swapper did not finish", n.idx)
		}
		if n.swapAck != n.swapReq {
			h.failf("conservation", "mpm %d: %d of %d swap cycles acknowledged", n.idx, n.swapAck, n.swapReq)
		}
	}
	if n.scratch != nil && !n.scratchDone {
		h.failf("conservation", "mpm %d: scratch kernel did not finish", n.idx)
	}
	if n.listener != nil && n.listenerDone {
		if !h.drop && n.alarmsFired < n.alarmsSet {
			h.failf("conservation", "mpm %d: alarms lost: %d fired of %d set with no drop fault armed", n.idx, n.alarmsFired, n.alarmsSet)
		}
		if !h.dup && n.alarmsFired > n.alarmsSet {
			h.failf("conservation", "mpm %d: alarms duplicated: %d fired of %d set with no dup fault armed", n.idx, n.alarmsFired, n.alarmsSet)
		}
	}
	if n.pulse != nil && n.pulseDone {
		if n.pulseNaps != n.napsDone {
			h.failf("conservation", "mpm %d: pulse napped %d times, driver drove %d", n.idx, n.pulseNaps, n.napsDone)
		}
		if !h.drop && n.pulseCount < n.pingsPosted {
			h.failf("conservation", "mpm %d: pings lost: %d observed of %d posted with no drop fault armed", n.idx, n.pulseCount, n.pingsPosted)
		}
		if !h.dup && n.pulseCount > n.pingsPosted {
			h.failf("conservation", "mpm %d: pings duplicated: %d observed of %d posted with no dup fault armed", n.idx, n.pulseCount, n.pingsPosted)
		}
	}
}

// checkCoherence is the cache-coherence oracle: at a quiescent point,
// every loaded thread descriptor must be resolvable to exactly one
// application-kernel master record (direction 1), and every master
// record claiming to be loaded must still validate (direction 2 —
// skipped when writeback corruption is armed, since a corrupted
// writeback legitimately strands the master copy). Threads whose
// execution finished are exempt: the Cache Kernel reclaims an exited
// thread without writeback, so its master record goes stale by design.
func (h *harness) checkCoherence(n *node, when string) {
	snap := n.k.Snapshot()
	seen := map[string]int{}
	for _, ts := range snap.Threads {
		seen[ts.ExecName]++
		found := false
		for _, ak := range n.aks {
			if th := ak.ThreadByID(ts.ID); th != nil {
				found = true
				break
			}
		}
		if !found {
			h.failf("coherence", "mpm %d %s: loaded thread %v (%q, %s) has no application-kernel master record",
				n.idx, when, ts.ID, ts.ExecName, ts.State)
		}
	}
	for _, ts := range snap.Threads {
		if seen[ts.ExecName] > 1 {
			h.failf("coherence", "mpm %d %s: execution %q appears on %d loaded thread descriptors",
				n.idx, when, ts.ExecName, seen[ts.ExecName])
			seen[ts.ExecName] = 1 // report once
		}
	}
	if h.corrupt {
		return
	}
	for _, ak := range n.aks {
		for _, th := range ak.LoadedThreads() {
			if !th.Loaded || (th.Exec != nil && th.Exec.Finished()) {
				continue
			}
			if !n.k.Loaded(th.TID) {
				h.failf("coherence", "mpm %d %s: master record %q claims loaded tid %v but the descriptor is gone",
					n.idx, when, th.Name, th.TID)
			}
		}
	}
}
