package ckctl

import (
	"fmt"
	"sort"
	"strings"
)

// The structured status API: everything is derived from virtual-time
// simulation state, so `ckctl ps` output and the status JSON are
// byte-identical for a given spec, seed and chaos plan. Read after the
// machine has run (or from inside the simulation).

// InstanceStatus is one pod's controller-view status line.
type InstanceStatus struct {
	Name     string
	Kind     string
	Policy   string
	Node     int
	Phase    string
	Gen      int
	Restarts int
	Beats    uint64
}

// NodeStatus is one module's last-reported status.
type NodeStatus struct {
	Node       int
	Load       uint64
	FreeGroups int
	Recoveries int
	// Revived counts control-plane service threads the watchdogs
	// regenerated after kill faults.
	Revived      int
	Hosted       int
	LastReportAt uint64
}

// UpgradeStatus summarizes a rolling upgrade.
type UpgradeStatus struct {
	StartAt  uint64
	DoneAt   uint64
	Makespan uint64
	Migrated int
	Skipped  int
}

// Status is the full cluster view.
type Status struct {
	At         uint64
	Instances  []InstanceStatus
	Nodes      []NodeStatus
	Migrations []MigrationRecord
	Upgrade    *UpgradeStatus `json:",omitempty"`
}

// Status snapshots the controller's view of the cluster.
func (c *Cluster) Status() Status {
	ctl := c.ctl
	st := Status{At: c.M.Now()}
	hosted := make([]int, len(c.Nodes))
	for _, name := range ctl.names {
		in := ctl.insts[name]
		st.Instances = append(st.Instances, InstanceStatus{
			Name:     in.name,
			Kind:     in.spec.Kind,
			Policy:   in.spec.Restart.String(),
			Node:     in.node,
			Phase:    in.phase.String(),
			Gen:      in.gen,
			Restarts: in.restarts,
			Beats:    in.beats,
		})
		if in.node >= 0 && in.phase != phaseFailed {
			hosted[in.node]++
		}
	}
	for i, n := range c.Nodes {
		st.Nodes = append(st.Nodes, NodeStatus{
			Node:         i,
			Load:         ctl.nodeLoad[i],
			FreeGroups:   ctl.nodeFree[i],
			Recoveries:   n.recoveries,
			Revived:      n.revived,
			Hosted:       hosted[i],
			LastReportAt: ctl.nodeSeen[i],
		})
	}
	for _, mr := range ctl.migrations {
		st.Migrations = append(st.Migrations, *mr)
	}
	if up := ctl.upgrade; up != nil {
		us := &UpgradeStatus{StartAt: up.startAt, DoneAt: up.doneAt, Migrated: up.migrated, Skipped: up.skipped}
		if up.doneAt > up.startAt {
			us.Makespan = up.doneAt - up.startAt
		}
		st.Upgrade = us
	}
	return st
}

// Table renders the status as a `ckctl ps`-style listing.
func (st Status) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-6s %-10s %4s %-10s %4s %9s %6s\n",
		"NAME", "KIND", "POLICY", "NODE", "PHASE", "GEN", "BEATS", "RST")
	for _, in := range st.Instances {
		fmt.Fprintf(&b, "%-14s %-6s %-10s %4d %-10s %4d %9d %6d\n",
			in.Name, in.Kind, in.Policy, in.Node, in.Phase, in.Gen, in.Beats, in.Restarts)
	}
	fmt.Fprintf(&b, "\n%-5s %-8s %-10s %-10s %-6s\n", "NODE", "HOSTED", "LOAD", "FREEGRP", "RECOV")
	for _, n := range st.Nodes {
		fmt.Fprintf(&b, "%-5d %-8d %-10d %-10d %-6d\n", n.Node, n.Hosted, n.Load, n.FreeGroups, n.Recoveries)
	}
	if len(st.Migrations) > 0 {
		fmt.Fprintf(&b, "\n%-14s %4s %4s %12s %12s %10s\n", "MIGRATION", "FROM", "TO", "EXPEL", "RESUME", "BLACKOUT")
		for _, m := range st.Migrations {
			if m.Failed {
				fmt.Fprintf(&b, "%-14s %4d %4d %12s %12s %10s (%s)\n", m.Name, m.From, m.To, "-", "-", "failed", m.Err)
				continue
			}
			fmt.Fprintf(&b, "%-14s %4d %4d %12d %12d %10d\n", m.Name, m.From, m.To, m.ExpelAt, m.FirstResume, m.Blackout)
		}
	}
	if st.Upgrade != nil {
		fmt.Fprintf(&b, "\nrolling upgrade: %d migrated, %d skipped, makespan %d cycles\n",
			st.Upgrade.Migrated, st.Upgrade.Skipped, st.Upgrade.Makespan)
	}
	return b.String()
}

// Verify cross-checks the controller's view against the SRMs' ground
// truth and the Cache Kernels' descriptor caches, returning one string
// per violation. Intended after the machine has quiesced. It asserts
// the migration conservation property — no instance's records exist on
// two modules, no running instance's on zero — plus placement
// coherence and pod liveness.
func (c *Cluster) Verify() []string {
	var bad []string
	ctl := c.ctl
	for _, name := range ctl.names {
		in := ctl.insts[name]
		var hosts []int
		for i, n := range c.Nodes {
			if n.SRM != nil && n.SRM.Kernel(name) != nil {
				hosts = append(hosts, i)
			}
		}
		if len(hosts) > 1 {
			bad = append(bad, fmt.Sprintf("conservation: %q launched on %d modules %v", name, len(hosts), hosts))
			continue
		}
		switch in.phase {
		case phaseRunning, phaseCompleted, phaseMigrating, phaseLaunching:
			if len(hosts) != 1 {
				bad = append(bad, fmt.Sprintf("conservation: %q is %s but launched on %d modules", name, in.phase, len(hosts)))
			} else if in.phase == phaseRunning && hosts[0] != in.node {
				bad = append(bad, fmt.Sprintf("coherence: %q placed on module %d, found on %d", name, in.node, hosts[0]))
			}
		}
		if in.phase == phaseRunning || in.phase == phaseCompleted {
			if len(hosts) == 1 {
				pr := c.Nodes[hosts[0]].hosted[name]
				if pr == nil {
					bad = append(bad, fmt.Sprintf("coherence: %q launched on module %d but not in its agent's pod set", name, hosts[0]))
				} else if pr.pod.Beats == 0 {
					bad = append(bad, fmt.Sprintf("liveness: %q never made progress (0 beats)", name))
				}
			}
		}
	}
	// Descriptor-cache conservation: no pod main is cached on two
	// modules (identifiers may legitimately be absent — written back,
	// or reclaimed after the body returned).
	count := make(map[string]int)
	for _, n := range c.Nodes {
		for _, ts := range n.CK.Snapshot().Threads {
			if strings.HasSuffix(ts.ExecName, "/main") {
				count[ts.ExecName]++
			}
		}
	}
	names := make([]string, 0, len(count))
	for en := range count {
		names = append(names, en)
	}
	sort.Strings(names)
	for _, en := range names {
		if count[en] > 1 {
			bad = append(bad, fmt.Sprintf("conservation: thread %q cached on %d modules", en, count[en]))
		}
	}
	for _, n := range c.Nodes {
		if err := n.CK.CheckInvariants(); err != nil {
			bad = append(bad, fmt.Sprintf("invariants: module %d: %v", n.Idx, err))
		}
	}
	return bad
}
