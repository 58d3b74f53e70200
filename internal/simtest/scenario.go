// Package simtest is a deterministic property-based simulation-testing
// harness for the whole Cache Kernel stack (FoundationDB-style): one
// uint64 seed expands into a multi-MPM topology, an application-kernel
// mix, an operation stream and a chaos fault plan, all under the
// virtual clock, so every run is bit-reproducible. Oracles check the
// caching model's core claims at quiescent points — descriptor state is
// a cache of the application kernels' master copies, nothing is lost or
// duplicated, and virtual time never runs backwards — and failures
// shrink to a minimal scenario that replays from a JSON file.
package simtest

import (
	"encoding/json"
	"fmt"
	"strings"

	"vpp/internal/chaos"
)

// OpKind enumerates the generated operation stream's vocabulary.
type OpKind int

const (
	// OpPause charges idle time on the driver.
	OpPause OpKind = iota
	// OpWorker spawns a thread that demand-faults a small page window
	// and exits through a trap to its kernel.
	OpWorker
	// OpStorm is OpWorker with a window sized to thrash the mapping
	// cache (page-fault storm: eviction, writeback, reload).
	OpStorm
	// OpMapFlip loads and immediately unloads mappings, checking the
	// unloaded state round-trips.
	OpMapFlip
	// OpEcho runs client/server IPC rounds over a message-mode page
	// pair with an address-valued signal registration.
	OpEcho
	// OpPulse signals a long-lived service thread; with a delay it also
	// forces a self-unload/reload cycle of that thread's descriptor.
	OpPulse
	// OpSwap asks the SRM to swap a whole scratch kernel out and back
	// in (descriptor writeback/eviction at kernel granularity).
	OpSwap
	// OpAlarm sets absolute-time alarms on a listener thread.
	OpAlarm

	numOpKinds
)

// String names an operation kind.
func (k OpKind) String() string {
	switch k {
	case OpPause:
		return "pause"
	case OpWorker:
		return "worker"
	case OpStorm:
		return "storm"
	case OpMapFlip:
		return "mapflip"
	case OpEcho:
		return "echo"
	case OpPulse:
		return "pulse"
	case OpSwap:
		return "swap"
	case OpAlarm:
		return "alarm"
	}
	return fmt.Sprintf("opkind(%d)", int(k))
}

// Op is one generated operation. Fields are interpreted per kind; the
// zero value of an unused field is meaningful (and kept stable so
// replay files stay valid across versions).
type Op struct {
	Kind OpKind
	// MPM selects the node whose driver executes the op.
	MPM int

	Pages   int `json:",omitempty"`
	Laps    int `json:",omitempty"`
	Rounds  int `json:",omitempty"`
	DelayUS int `json:",omitempty"`
	Prio    int `json:",omitempty"`
}

// Mix selects which application-kernel stacks the scenario boots
// alongside the per-node driver kernel.
type Mix struct {
	Unix    bool // unixemu timesharing a process tree on node 0
	RTK     bool // rtk periodic hard-real-time task on the last node
	DSM     bool // dsm sharers ping-ponging a page across nodes 0 and 1
	Netboot bool // TFTP image fetch over a simulated wire on node 0
}

// Scenario is one fully-expanded test case: everything Run needs, all
// derived deterministically from Seed by Generate (or shrunk from such
// a scenario, or decoded from a replay file).
type Scenario struct {
	Seed uint64

	MPMs         int
	CPUsPerMPM   int
	ThreadSlots  int
	MappingSlots int
	HorizonUS    int

	Mix Mix

	// Crash marks the crash-recovery family: a scripted Cache Kernel
	// crash at CrashAtUS with an SRM guardian recovering it.
	Crash     bool `json:",omitempty"`
	CrashAtUS int  `json:",omitempty"`

	// FaultSeed seeds the chaos injector's own stream; Faults is the
	// armed plan.
	FaultSeed uint64
	Faults    []chaos.Fault `json:",omitempty"`

	// Orch marks the orchestration family: instead of driver op streams,
	// the scenario boots the ckctl plane over every MPM and drives a
	// rolling upgrade of a pod fleet (live cross-MPM migration) under the
	// fault plan. Ops is empty for this family.
	Orch *OrchSpec `json:",omitempty"`

	Ops []Op
}

// OrchSpec parameterizes one orchestration scenario. The fault plan
// still lives in Scenario.Faults so shard co-location and the injector
// work unchanged.
type OrchSpec struct {
	// Pods is the fleet size (sum over both restart-policy groups).
	Pods int
	// BeatUS is the virtual time one pod heartbeat charges.
	BeatUS int
	// UpgradeAtUS schedules the rolling upgrade (live migration of every
	// instance, serially, in name order).
	UpgradeAtUS int
	// Chaotic relaxes the upgrade oracles: under kill/crash faults,
	// individual migrations may legitimately fail over to a relaunch.
	Chaotic bool `json:",omitempty"`
}

// Failure is one oracle violation.
type Failure struct {
	Oracle string
	Detail string
}

// Result is the outcome of running one scenario.
type Result struct {
	Scenario Scenario
	Failures []Failure
	// FailuresTruncated reports that more violations occurred than the
	// harness records.
	FailuresTruncated bool

	// FinalClock/Steps/Dispatches/Hash fingerprint the run: Hash is
	// FNV-1a over the full dispatch schedule (name and virtual time of
	// every dispatch).
	FinalClock uint64
	Steps      uint64
	Dispatches uint64
	Hash       uint64

	FaultStats chaos.Stats

	// Orch summarizes the orchestration family's run (nil otherwise).
	Orch *OrchStats `json:",omitempty"`
}

// OrchStats is the deterministic cluster summary of an orchestration
// scenario: controller phase census, migration and recovery counts, and
// the upgrade's virtual-time cost.
type OrchStats struct {
	Instances  int
	Completed  int
	Running    int
	Failed     int
	Restarts   int
	Migrated   int
	MigFailed  int
	Skipped    int
	Recoveries int
	Revived    int
	// Makespan is the rolling upgrade's span in cycles; BlackoutMax the
	// worst per-pod migration blackout observed.
	Makespan    uint64
	BlackoutMax uint64
}

// Failed reports whether any oracle fired.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

// Fingerprint renders the deterministic run summary: identical for
// identical seeds, byte for byte.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	sc := &r.Scenario
	fmt.Fprintf(&b, "seed %d\n", sc.Seed)
	fmt.Fprintf(&b, "fnv64a %016x\n", r.Hash)
	fmt.Fprintf(&b, "dispatches %d\n", r.Dispatches)
	fmt.Fprintf(&b, "steps %d\n", r.Steps)
	fmt.Fprintf(&b, "final_clock %d\n", r.FinalClock)
	fmt.Fprintf(&b, "topology mpms=%d cpus=%d threads=%d mappings=%d horizon_us=%d\n",
		sc.MPMs, sc.CPUsPerMPM, sc.ThreadSlots, sc.MappingSlots, sc.HorizonUS)
	fmt.Fprintf(&b, "mix unix=%t rtk=%t dsm=%t netboot=%t crash=%t\n",
		sc.Mix.Unix, sc.Mix.RTK, sc.Mix.DSM, sc.Mix.Netboot, sc.Crash)
	if sc.Orch != nil {
		fmt.Fprintf(&b, "orch pods=%d beat_us=%d upgrade_at_us=%d chaotic=%t\n",
			sc.Orch.Pods, sc.Orch.BeatUS, sc.Orch.UpgradeAtUS, sc.Orch.Chaotic)
	}
	fmt.Fprintf(&b, "ops %d faults %d\n", len(sc.Ops), len(sc.Faults))
	fmt.Fprintf(&b, "fault_stats crashes=%d sigdrop=%d sigdup=%d wbcorrupt=%d framedrop=%d walkerr=%d\n",
		r.FaultStats.Crashes, r.FaultStats.SignalsDropped, r.FaultStats.SignalsDuplicated,
		r.FaultStats.WritebacksCorrupted, r.FaultStats.FramesDropped, r.FaultStats.WalkErrors)
	if o := r.Orch; o != nil {
		fmt.Fprintf(&b, "orch_stats inst=%d done=%d run=%d fail=%d rst=%d mig=%d migfail=%d skip=%d recov=%d revive=%d makespan=%d blackout_max=%d\n",
			o.Instances, o.Completed, o.Running, o.Failed, o.Restarts, o.Migrated,
			o.MigFailed, o.Skipped, o.Recoveries, o.Revived, o.Makespan, o.BlackoutMax)
	}
	fmt.Fprintf(&b, "failures %d\n", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  %s: %s\n", f.Oracle, f.Detail)
	}
	if r.FailuresTruncated {
		fmt.Fprintf(&b, "  ... (truncated)\n")
	}
	return b.String()
}

// replayVersion guards replay-file compatibility.
const replayVersion = 1

// Replay is the serialized failure reproduction: the exact scenario
// (seed plus any shrinking already applied) and the failures it
// produced when recorded.
type Replay struct {
	Version  int
	Scenario Scenario
	Failures []Failure
}

// EncodeReplay serializes a replay file for a failed result.
func EncodeReplay(r *Result) ([]byte, error) {
	rep := Replay{Version: replayVersion, Scenario: r.Scenario, Failures: r.Failures}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeReplay parses a replay file.
func DecodeReplay(b []byte) (*Replay, error) {
	var rep Replay
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("simtest: bad replay file: %w", err)
	}
	if rep.Version != replayVersion {
		return nil, fmt.Errorf("simtest: replay version %d, want %d", rep.Version, replayVersion)
	}
	return &rep, nil
}
