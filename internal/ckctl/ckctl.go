// Package ckctl is a container-style orchestration plane over
// application kernels: a declarative spec of desired pods (kind, count,
// placement constraint, restart policy), a reconciling controller, and
// live migration of running kernels between MPMs.
//
// Everything runs *inside* the simulation as ordinary coroutines — the
// controller and the per-MPM agents are SRM-space worker threads
// (replayed across Cache Kernel crashes by the SRM's service registry),
// and all control traffic is virtual-time messages that pay the control
// latency (sim.Engine.DeliverAt). A given spec, chaos plan and seed
// therefore produce a byte-identical run: orchestration is part of the
// simulated world, not a host-side driver.
//
// The plane leans on the paper's caching model twice over. Crash
// handling is the SRM guardian's existing regenerate-from-backing-records
// recovery (paper §3); ckctl only decides *policy* — which pods to
// restart where. And live migration is a records handoff rather than a
// state copy: quiesce the source instance, force a full descriptor
// writeback (srm.Expel), carry the backing records to the target MPM in
// one control message, and reload them there (srm.Adopt). Physical
// memory is machine-wide, so the pod's frames and segment contents
// never move. The measured cost is a virtual-time blackout: last
// source-side dispatch to first target-side dispatch.
package ckctl

import (
	"fmt"
	"slices"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/srm"
)

// Harness signal value for the agent/controller self-alarm ticks, away
// from every library's own.
const sigTick uint32 = 0x7D1

// servicePrio is the agents' and controller's thread priority: below
// the SRM boot thread (50) and recovery threads (45), above ordinary
// pods, so the control plane stays responsive without starving
// recovery.
const servicePrio = 44

// The plane's timings, in cycles of virtual time. The controller's two
// timeouts scale with the fleet instead (Controller.launchTimeout).
const (
	// agentTick is the agents', medics' and controller's polling period.
	agentTick = 100 * hw.CyclesPerMicrosecond
	// ctlLatency is the modeled control-message latency between modules.
	ctlLatency = 25 * hw.CyclesPerMicrosecond
	// backoffBase and backoffCap bound the doubling restart backoff.
	backoffBase = 500 * hw.CyclesPerMicrosecond
	backoffCap  = 8_000 * hw.CyclesPerMicrosecond
	// guardInterval is the per-MPM crash guardian's probe period.
	guardInterval = 400 * hw.CyclesPerMicrosecond
)

// Config configures the plane.
type Config struct {
	// Horizon, in cycles of virtual time, stops the controller, agents
	// and guardians; it must be set, or the plane would keep the engine
	// alive forever.
	Horizon uint64
	// CK configures each MPM's Cache Kernel instance.
	CK ck.Config
}

// Node is the plane's per-MPM half: the module's Cache Kernel and SRM
// plus the agent state.
type Node struct {
	Idx int
	MPM *hw.MPM
	CK  *ck.Kernel
	SRM *srm.SRM

	cl *Cluster

	// hosted is this module's pod set, indexed by instance number (nil
	// where the module hosts no copy); the agent is the only writer.
	hosted []*podRec
	// reports holds report messages the controller has finished with,
	// for the agent to fill again.
	reports []*nodeReport
	// inbox receives controller commands (appended by delivery
	// records); drain swaps it with spare, so the two buffers take
	// turns.
	inbox, spare []command
	// lastDispatch holds each execution context's most recent dispatch
	// (for the migration blackout's source timestamp) and awaitFirst
	// the in-progress adoptions (nil where none waits), both indexed by
	// the context's name index (sim.Coro.NameID): contexts that share a
	// name, such as a revived main and its predecessor, share a slot.
	lastDispatch []uint64
	agentUp      bool
	awaitFirst   []*migMsg

	// agent, medic and ctl are the node's plane services (ctl only on
	// node 0; its thread is nil elsewhere).
	agent, medic, ctl planeService

	// recoveries counts guardian recoveries on this module; revived
	// counts service threads the medic/agent watchdogs regenerated after
	// a kill fault landed on one.
	recoveries int
	revived    int
	guardian   *srm.Guardian
}

// podRec is the agent's record of one hosted pod.
type podRec struct {
	spec KernelSpec // per-instance (Count folded out)
	pod  *Pod
	gen  int
	// rec is the module SRM's record of the pod's kernel, what
	// SRM.Kernel(pod.Name) returns, or nil where the SRM has none. The
	// agent sets it where it changes the SRM's record: ensure, adopt
	// and migrateOut.
	rec *srm.Launched
}

// Cluster is one orchestrated machine: a controller on node 0 plus an
// agent per MPM.
type Cluster struct {
	M     *hw.Machine
	Cfg   Config
	Nodes []*Node

	ctl *Controller
	// deliveries holds the free control-message records (sendCmd,
	// sendEvent).
	deliveries []*delivery
}

// New boots the orchestration plane over every MPM of the machine: a
// Cache Kernel and SRM per module, an agent service on each, the
// controller service and its guardian-backed reconcile loop on node 0.
// Call before m.Run; read Status after.
func New(m *hw.Machine, cfg Config, spec Spec) (*Cluster, error) {
	if cfg.Horizon == 0 {
		return nil, fmt.Errorf("ckctl: Config.Horizon must be set")
	}
	// Normalize a copy: the defaults must not be written into the
	// caller's KernelSpecs.
	spec.Kernels = slices.Clone(spec.Kernels)
	instances, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	c := &Cluster{M: m, Cfg: cfg}
	for i, mpm := range m.MPMs {
		k, err := ck.New(mpm, cfg.CK)
		if err != nil {
			return nil, fmt.Errorf("ckctl: ck.New mpm %d: %w", i, err)
		}
		n := &Node{
			Idx: i, MPM: mpm, CK: k, cl: c,
			hosted: make([]*podRec, instances),
			agent:  planeService{name: "agent"},
			medic:  planeService{name: "medic"},
			ctl:    planeService{name: "ctl"},
		}
		k.Observe(n.trackDispatch)
		c.Nodes = append(c.Nodes, n)
	}
	c.ctl = newController(c, spec)
	for _, n := range c.Nodes {
		n := n
		_, err := srm.Start(n.CK, n.MPM, func(s *srm.SRM, e *hw.Exec) {
			n.SRM = s
			var err error
			if n.agent.t, err = s.AddService(e, n.agent.name, servicePrio, n.agentBody); err != nil {
				panic(fmt.Sprintf("ckctl: install agent on mpm %d: %v", n.Idx, err))
			}
			if n.Idx == 0 {
				if n.ctl.t, err = s.AddService(e, n.ctl.name, servicePrio, c.ctl.body); err != nil {
					panic(fmt.Sprintf("ckctl: install controller: %v", err))
				}
			}
			if n.medic.t, err = s.AddService(e, n.medic.name, servicePrio, n.medicBody); err != nil {
				panic(fmt.Sprintf("ckctl: install medic on mpm %d: %v", n.Idx, err))
			}
			n.guardian = s.Guard(srm.GuardConfig{
				Interval:    guardInterval,
				Until:       c.Cfg.Horizon,
				OnRecovered: func(*srm.RecoveryReport) { n.recoveries++ },
			})
			// Return: the boot thread exits after setup, so a crash finds
			// nothing of the SRM to strand. The guardian and the service
			// registry are what survive.
		})
		if err != nil {
			return nil, fmt.Errorf("ckctl: srm.Start mpm %d: %w", n.Idx, err)
		}
	}
	return c, nil
}

// Kernels returns every module's Cache Kernel, in MPM order (for chaos
// arming and invariant checks).
func (c *Cluster) Kernels() []*ck.Kernel {
	ks := make([]*ck.Kernel, len(c.Nodes))
	for i, n := range c.Nodes {
		ks[i] = n.CK
	}
	return ks
}

// ScheduleRollingUpgrade arranges (before the machine runs) for the
// controller to begin a rolling upgrade at virtual time at: every
// instance is live-migrated off its module, one at a time, in
// declaration order — the drain-and-move pattern of a cluster upgrade.
// The makespan and per-pod blackouts appear in Status.
func (c *Cluster) ScheduleRollingUpgrade(at uint64) {
	c.Nodes[0].MPM.Engine.ScheduleAt(at, func() {
		c.ctl.beginUpgrade(at)
	})
}
