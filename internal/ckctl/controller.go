package ckctl

import (
	"fmt"
	"slices"

	"vpp/internal/hw"
)

// The controller: an SRM-space worker thread on node 0 that owns the
// desired-state spec and reconciles the cluster toward it from agent
// reports. Agents talk to it only through control messages that pay the
// control latency, so reconciliation is part of the simulated schedule
// and deterministic.

// phase is the controller's view of one instance.
type phase int

const (
	phasePending phase = iota
	phaseLaunching
	phaseRunning
	phaseRestarting
	phaseMigrating
	phaseCompleted
	phaseFailed
)

func (p phase) String() string {
	switch p {
	case phasePending:
		return "pending"
	case phaseLaunching:
		return "launching"
	case phaseRunning:
		return "running"
	case phaseRestarting:
		return "restarting"
	case phaseMigrating:
		return "migrating"
	case phaseCompleted:
		return "completed"
	case phaseFailed:
		return "failed"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// assignedWeight is the placement score added per instance already
// assigned to a module, so a launch wave spreads before the first load
// reports arrive. Comparable to one pod's descriptor-cache footprint in
// LoadScore units.
const assignedWeight = 400

// instance is the controller's record of one desired pod. id is its
// instance number: its index in Controller.insts, assigned in
// declaration order, and the key every control message and agent
// table uses for it.
type instance struct {
	id   int
	name string
	spec KernelSpec

	node  int // current home module (-1 before first placement)
	phase phase
	gen   int
	beats uint64

	lastSeen uint64
	backoff  uint64
	retryAt  uint64
	deadline uint64
	fresh    bool
	avoid    int // module of the last launch failure (-1 none)

	// sightNode/sightAt record the last module whose agent reported
	// holding this instance's records — the convergence anchor when a
	// migration times out and the controller must guess where the pod
	// ended up without risking a duplicate launch.
	sightNode int
	sightAt   uint64

	restarts int
	mig      *MigrationRecord
}

// MigrationRecord is the measured timeline of one live migration.
type MigrationRecord struct {
	Name     string
	From, To int
	// StartAt is when the controller issued the migration;
	// SrcLastDispatch is the pod's last source-side resume; ExpelAt the
	// completed writeback; AdoptAt the completed target reload;
	// FirstResume the first target-side dispatch.
	StartAt         uint64
	SrcLastDispatch uint64
	ExpelAt         uint64
	AdoptAt         uint64
	FirstResume     uint64
	// Blackout is FirstResume − SrcLastDispatch: the virtual time the
	// pod made no progress anywhere.
	Blackout uint64
	Failed   bool
	Err      string `json:",omitempty"`
}

// upgradeState tracks one rolling upgrade.
type upgradeState struct {
	startAt  uint64
	doneAt   uint64
	queue    []*instance
	current  *instance
	migrated int
	skipped  int
	// waitUntil bounds how long the drive loop waits for the pod at the
	// head of the queue to finish launching before skipping it.
	waitUntil uint64
}

// Controller is the reconcile loop's state.
type Controller struct {
	cl *Cluster

	// insts holds every desired pod in declaration order, indexed by
	// instance number.
	insts []*instance

	// inbox receives agent events (appended by delivery records);
	// drain swaps it with spare, so the two buffers take turns.
	inbox, spare []event

	nodeLoad       []uint64
	nodeFree       []int
	nodeSeen       []uint64
	nodeRecoveries []int
	// assigned is place's per-module count of live instances, kept
	// here so a placement does not allocate.
	assigned []int

	// launchTimeout bounds how long the controller waits for a launch
	// or restart to be reported running before reissuing it;
	// migrateTimeout bounds a migration before the controller falls
	// back to relaunching the pod on the target. Both grow with the
	// fleet: the launch wave is fleet-sized, and a migrated pod's first
	// target dispatch waits out a run queue the fleet saturates, so the
	// convergence fallbacks stay for faults, not ordinary queueing.
	launchTimeout, migrateTimeout uint64

	migrations []*MigrationRecord
	upgrade    *upgradeState
	done       bool
}

func newController(cl *Cluster, spec Spec) *Controller {
	ctl := &Controller{
		cl:             cl,
		nodeLoad:       make([]uint64, len(cl.Nodes)),
		nodeFree:       make([]int, len(cl.Nodes)),
		nodeSeen:       make([]uint64, len(cl.Nodes)),
		nodeRecoveries: make([]int, len(cl.Nodes)),
		assigned:       make([]int, len(cl.Nodes)),
	}
	for _, ks := range spec.Kernels {
		for i := 0; i < ks.Count; i++ {
			one := ks
			one.Count = 1
			ctl.insts = append(ctl.insts, &instance{
				id: len(ctl.insts), name: fmt.Sprintf("%s-%d", ks.Name, i),
				spec: one, node: -1, avoid: -1, sightNode: -1,
			})
		}
	}
	pods := uint64(len(ctl.insts))
	ctl.launchTimeout = (5_000 + 500*pods) * hw.CyclesPerMicrosecond
	ctl.migrateTimeout = (100_000 + 2_000*pods) * hw.CyclesPerMicrosecond
	return ctl
}

// body is the controller service loop (replayed after a node-0 crash;
// all reconcile state survives on the host side).
func (ctl *Controller) body(ce *hw.Exec) {
	cl := ctl.cl
	node0 := cl.Nodes[0]
	k := node0.CK
	node0.ctl.retired = false
	for ce.Now() < cl.Cfg.Horizon {
		tid := k.CurrentThread(ce)
		if err := k.SetAlarm(ce, tid, ce.Now()+agentTick, sigTick); err != nil {
			break
		}
		if _, err := k.WaitSignal(ce); err != nil {
			break
		}
		k.SignalReturn(ce)
		ctl.drain(ce)
		ctl.reconcile(ce)
	}
	node0.ctl.retired = true
	ctl.done = true
}

// drain processes queued agent events in arrival order. spare is
// cleared while a batch is out, so the two buffers can never share an
// array, even after a drain cut short.
func (ctl *Controller) drain(ce *hw.Exec) {
	for len(ctl.inbox) > 0 {
		evs := ctl.inbox
		ctl.inbox, ctl.spare = ctl.spare[:0], nil
		for i := range evs {
			ev := &evs[i]
			switch {
			case ev.report != nil:
				ctl.handleReport(ce, ev.report)
				n := ctl.cl.Nodes[ev.report.Node]
				n.reports = append(n.reports, ev.report)
			case ev.migDone != nil:
				ctl.handleMigDone(ce, ev.migDone)
			case ev.migFail != nil:
				ctl.handleMigFail(ce, ev.migFail)
			case ev.opFail != nil:
				ctl.handleOpFail(ce, ev.opFail)
			}
		}
		clear(evs)
		ctl.spare = evs[:0]
	}
}

func (ctl *Controller) handleReport(ce *hw.Exec, rep *nodeReport) {
	i := rep.Node
	ctl.nodeLoad[i] = rep.Load
	ctl.nodeFree[i] = rep.FreeGroups
	ctl.nodeSeen[i] = rep.At
	ctl.nodeRecoveries[i] = rep.Recoveries
	for _, kr := range rep.Kernels {
		in := ctl.insts[kr.Inst]
		if kr.State != psGone {
			in.sightNode, in.sightAt = i, rep.At
		}
		if i != in.node {
			// A report from a module we no longer consider the home —
			// usually the migration target before the done event lands.
			// Only the sighting matters; the done event (or the migrate
			// deadline) moves the instance.
			continue
		}
		in.beats = kr.Beats
		in.lastSeen = rep.At
		switch kr.State {
		case psRunning:
			if in.phase == phaseLaunching {
				in.phase = phaseRunning
			}
			if in.phase == phaseRunning {
				in.backoff = 0
			}
		case psSwapped:
			// Cache pressure swapped it out; bring it back promptly.
			if in.phase == phaseRunning {
				ctl.scheduleRestart(ce, in, false, 0)
			}
		case psCompleted:
			if in.phase == phaseRunning || in.phase == phaseLaunching {
				if in.spec.Restart == RestartAlways {
					ctl.scheduleRestart(ce, in, true, ctl.bumpBackoff(in))
				} else {
					in.phase = phaseCompleted
				}
			}
		case psFailed:
			if in.phase == phaseRunning || in.phase == phaseLaunching {
				if in.spec.Restart == RestartNever {
					in.phase = phaseFailed
				} else {
					ctl.scheduleRestart(ce, in, false, ctl.bumpBackoff(in))
				}
			}
		case psGone:
			// The module lost the record (it was expelled, or never took).
			// Involuntary from the instance's point of view.
			if in.phase == phaseRunning || in.phase == phaseLaunching {
				if in.spec.Restart == RestartNever {
					in.phase = phaseFailed
				} else {
					in.node = -1
					in.phase = phasePending
					in.retryAt = ce.Now() + ctl.bumpBackoff(in)
				}
			}
		}
	}
}

// bumpBackoff doubles (bounded) and returns the instance's backoff.
func (ctl *Controller) bumpBackoff(in *instance) uint64 {
	if in.backoff == 0 {
		in.backoff = backoffBase
	} else {
		in.backoff = min(2*in.backoff, backoffCap)
	}
	return in.backoff
}

// scheduleRestart arms a restart on the instance's current module after
// the given virtual-time delay.
func (ctl *Controller) scheduleRestart(ce *hw.Exec, in *instance, fresh bool, delay uint64) {
	in.phase = phaseRestarting
	in.fresh = fresh
	in.retryAt = ce.Now() + delay
	in.restarts++
}

func (ctl *Controller) handleMigDone(ce *hw.Exec, m *migMsg) {
	in := ctl.insts[m.inst]
	if in.phase != phaseMigrating || in.mig == nil {
		return // late duplicate; the reconcile already converged
	}
	in.mig.SrcLastDispatch = m.srcLast
	in.mig.ExpelAt = m.expelAt
	in.mig.AdoptAt = m.adoptAt
	in.mig.FirstResume = m.firstAt
	base := m.srcLast
	if base == 0 || base > m.firstAt {
		base = m.expelAt
	}
	in.mig.Blackout = m.firstAt - base
	ctl.finishMigration(in, in.mig)
}

// finishMigration records the migration and returns the instance to
// running on its new home.
func (ctl *Controller) finishMigration(in *instance, mr *MigrationRecord) {
	ctl.migrations = append(ctl.migrations, mr)
	in.node = mr.To
	in.phase = phaseRunning
	in.gen++
	in.backoff = 0
	in.mig = nil
	ctl.upgradeStep(in)
}

func (ctl *Controller) handleMigFail(ce *hw.Exec, mf *migFail) {
	in := ctl.insts[mf.inst]
	if in.phase != phaseMigrating || in.mig == nil {
		return
	}
	in.mig.Failed = true
	in.mig.Err = mf.stage + ": " + mf.err
	ctl.migrations = append(ctl.migrations, in.mig)
	// An expel failure leaves the pod on the source; an adopt failure
	// leaves its records at the target (Adopt inserts before reloading,
	// exactly so the target guardian and this relaunch can converge).
	if mf.stage == "expel" {
		in.node = mf.from
	} else {
		in.node = mf.to
	}
	in.mig = nil
	ctl.scheduleRestart(ce, in, false, ctl.bumpBackoff(in))
	ctl.upgradeStep(in)
}

func (ctl *Controller) handleOpFail(ce *hw.Exec, of *opFail) {
	in := ctl.insts[of.inst]
	if in.phase != phaseLaunching && in.phase != phasePending {
		return
	}
	in.avoid = of.node
	in.node = -1
	in.phase = phasePending
	in.retryAt = ce.Now() + ctl.bumpBackoff(in)
}

// reconcile advances every instance toward its desired state, then
// drives the rolling upgrade.
func (ctl *Controller) reconcile(ce *hw.Exec) {
	now := ce.Now()
	for _, in := range ctl.insts {
		switch in.phase {
		case phasePending:
			if now < in.retryAt {
				break
			}
			in.node = ctl.place(in, -1)
			in.phase = phaseLaunching
			in.deadline = now + ctl.launchTimeout
			ctl.ensure(ce, in)
		case phaseRestarting:
			if now < in.retryAt {
				break
			}
			in.phase = phaseLaunching
			in.deadline = now + ctl.launchTimeout
			ctl.ensure(ce, in)
		case phaseLaunching:
			if now >= in.deadline {
				ctl.scheduleRestart(ce, in, in.fresh, ctl.bumpBackoff(in))
			}
		case phaseMigrating:
			if now >= in.deadline && in.mig != nil {
				// Convergence fallback: the done event never arrived.
				// Relaunch wherever an agent last reported the records —
				// ensure is a no-op against live records, and launching on
				// the sighted module (rather than guessing) is what keeps a
				// half-finished migration from ending in two copies.
				in.mig.Failed = true
				in.mig.Err = "timeout"
				ctl.migrations = append(ctl.migrations, in.mig)
				if in.sightAt > in.mig.StartAt {
					in.node = in.sightNode
				} else {
					in.node = in.mig.To
				}
				in.mig = nil
				ctl.scheduleRestart(ce, in, false, 0)
				ctl.upgradeStep(in)
			}
		}
	}
	ctl.driveUpgrade(ce, now)
}

// send issues a command to a node's agent.
func (ctl *Controller) send(ce *hw.Exec, node int, cmd command) {
	cl := ctl.cl
	cl.sendCmd(ce.Now(), cl.Nodes[node], cmd)
}

// ensure sends the instance's home module an ensure command.
func (ctl *Controller) ensure(ce *hw.Exec, in *instance) {
	ctl.send(ce, in.node, command{kind: cmdEnsure, inst: in.id, name: in.name, spec: in.spec, fresh: in.fresh})
	in.fresh = false
}

// place picks a module for the instance: its pin if set, else the
// lowest effective load score (last reported score plus a weight per
// instance already assigned), skipping the module its last launch
// failed on and modules known to lack page-group capacity.
func (ctl *Controller) place(in *instance, exclude int) int {
	nn := len(ctl.cl.Nodes)
	if in.spec.MPM >= 0 {
		return in.spec.MPM % nn
	}
	assigned := ctl.assigned
	clear(assigned)
	for _, o := range ctl.insts {
		if o.node >= 0 && o.phase != phaseCompleted && o.phase != phaseFailed {
			assigned[o.node]++
		}
	}
	best, bestScore := -1, ^uint64(0)
	for i := 0; i < nn; i++ {
		if i == exclude || (i == in.avoid && nn > 1) {
			continue
		}
		if ctl.nodeSeen[i] != 0 && ctl.nodeFree[i] < in.spec.Groups {
			continue
		}
		score := ctl.nodeLoad[i] + uint64(assigned[i])*assignedWeight
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		// Everything excluded: fall back to round-robin off the exclusion.
		best = (exclude + 1) % nn
		if best < 0 {
			best = 0
		}
	}
	return best
}

// beginUpgrade starts a rolling upgrade over every instance, in
// declaration order (engine context; installed by
// Cluster.ScheduleRollingUpgrade).
func (ctl *Controller) beginUpgrade(at uint64) {
	if ctl.upgrade != nil {
		return
	}
	ctl.upgrade = &upgradeState{
		startAt: at,
		queue:   slices.Clone(ctl.insts),
	}
}

// upgradeStep clears the in-flight slot when the instance's migration
// ends.
func (ctl *Controller) upgradeStep(in *instance) {
	if ctl.upgrade != nil && ctl.upgrade.current == in {
		ctl.upgrade.current = nil
	}
}

// driveUpgrade serializes the upgrade: one migration in flight at a
// time, each instance moved to the least-loaded other module.
func (ctl *Controller) driveUpgrade(ce *hw.Exec, now uint64) {
	up := ctl.upgrade
	if up == nil || up.doneAt != 0 || up.current != nil {
		return
	}
	for len(up.queue) > 0 {
		in := up.queue[0]
		if in.phase != phaseRunning &&
			in.phase != phaseCompleted && in.phase != phaseFailed {
			// Still pending or launching (an upgrade scheduled early can
			// overtake the initial launch wave): hold the queue head until
			// it comes up rather than skipping a pod that is about to run,
			// but bound the wait so a pod stuck relaunching under chaos
			// cannot stall the whole upgrade.
			if up.waitUntil == 0 {
				up.waitUntil = now + ctl.launchTimeout
			}
			if now < up.waitUntil {
				return
			}
		}
		up.queue = up.queue[1:]
		up.waitUntil = 0
		if in.phase != phaseRunning {
			up.skipped++
			continue
		}
		dst := ctl.place(in, in.node)
		if dst == in.node {
			up.skipped++
			continue
		}
		in.phase = phaseMigrating
		in.deadline = now + ctl.migrateTimeout
		in.mig = &MigrationRecord{Name: in.name, From: in.node, To: dst, StartAt: now}
		ctl.send(ce, in.node, command{kind: cmdMigrateOut, inst: in.id, name: in.name, dst: dst})
		up.current = in
		up.migrated++
		return
	}
	up.doneAt = now
}
