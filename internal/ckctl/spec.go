package ckctl

import "fmt"

// RestartPolicy says what the controller does when a pod's main thread
// stops.
type RestartPolicy int

const (
	// RestartNever leaves the pod down however it stopped.
	RestartNever RestartPolicy = iota
	// RestartOnFailure restarts pods whose context died without the body
	// completing (a crash kill or a transient processor fault), but not
	// pods that ran to completion.
	RestartOnFailure
	// RestartAlways restarts completed pods too, from a fresh beat count.
	RestartAlways
)

// String names the policy for status output.
func (p RestartPolicy) String() string {
	switch p {
	case RestartNever:
		return "no"
	case RestartOnFailure:
		return "on-failure"
	case RestartAlways:
		return "always"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// KernelSpec declares a group of identical pods: Count application
// kernels named "<Name>-<i>", each running the named kind's workload
// under the given restart policy. It is the declarative unit of the
// orchestration plane — the controller owns making the cluster match.
type KernelSpec struct {
	// Kind selects the workload body; "beat" (a deterministic compute
	// loop counting heartbeats) is built in.
	Kind string
	// Name prefixes the instance names.
	Name string
	// Count is the desired number of instances.
	Count int
	// MPM pins every instance to one module; -1 places each instance on
	// the module with the lowest descriptor-cache load score at launch
	// time.
	MPM int
	// Restart is the per-instance restart policy.
	Restart RestartPolicy
	// Groups is the physical page-group grant per instance (default 1).
	Groups int
	// MainPrio is the main thread's priority (default 20).
	MainPrio int
	// Beats bounds the workload: the pod completes after this many
	// heartbeats (0 = run until the horizon).
	Beats uint64
	// BeatUS is the virtual time charged per heartbeat in microseconds
	// (default 200).
	BeatUS float64
}

// Spec is the cluster's desired state.
type Spec struct {
	Kernels []KernelSpec
}

// normalize applies defaults and validates; instances counts the total.
func (sp *Spec) normalize() (instances int, err error) {
	for i := range sp.Kernels {
		ks := &sp.Kernels[i]
		if ks.Kind == "" {
			ks.Kind = "beat"
		}
		if ks.Kind != "beat" {
			return 0, fmt.Errorf("ckctl: unknown pod kind %q", ks.Kind)
		}
		if ks.Name == "" {
			return 0, fmt.Errorf("ckctl: kernel spec %d has no name", i)
		}
		if ks.Count <= 0 {
			ks.Count = 1
		}
		if ks.Groups <= 0 {
			ks.Groups = 1
		}
		if ks.MainPrio <= 0 {
			ks.MainPrio = 20
		}
		if ks.BeatUS <= 0 {
			ks.BeatUS = 200
		}
		instances += ks.Count
	}
	return instances, nil
}

// Pod is the host-side workload state of one instance. It belongs to
// the node the pod currently runs on: the body mutates it, the local
// agent reads it, and a migration hands it to the target node inside
// the same control message that carries the kernel's backing records.
type Pod struct {
	Name string
	// Beats counts completed heartbeats. It survives migration and
	// crash revival — the backing state of the caching model — so a
	// moved or revived pod resumes its count rather than restarting it.
	Beats uint64
	// Done marks a bounded pod that reached its beat target.
	Done bool
	// AtHorizon marks an unbounded pod that ran out the scenario clock
	// (a normal end, not a failure).
	AtHorizon bool
}
