package exp

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"vpp/internal/ck"
	"vpp/internal/simk"
)

// Experiment is one entry of the evaluation catalog: a paper table,
// section measurement, ablation or extension that cmd/ckbench
// regenerates as -exp ID.
type Experiment struct {
	ID    string
	Title string
	// OptIn entries run only when named: "all" leaves them out.
	OptIn bool
	// Bench is the BENCH_*.json report ckbench -json writes the result
	// to; empty when the experiment keeps none.
	Bench string
	// Run measures the experiment; full selects the paper's full-size
	// configuration where the default is scaled down. A non-nil result
	// is reported even when the error says it broke the experiment's
	// bound.
	Run func(full bool) (fmt.Stringer, error)
}

// Experiments is the catalog in ckbench's output order.
var Experiments = []Experiment{
	{ID: "t1", Title: "Cache Kernel object sizes (paper Table 1)",
		Run: func(bool) (fmt.Stringer, error) { return MeasureTable1(), nil }},
	{ID: "t2", Title: "basic operation times, µs (paper Table 2 and §5.3)",
		Run: func(bool) (fmt.Stringer, error) {
			t2, err := MeasureTable2()
			return result(table2Report{t2}, err)
		}},
	{ID: "s52a", Title: "descriptor memory budget (paper §5.2)",
		Run: func(bool) (fmt.Stringer, error) { return MeasureMemBudget(), nil }},
	{ID: "s52b", Title: "mapping-cache replacement interference sweep (paper §5.2)",
		Run: func(full bool) (fmt.Stringer, error) {
			slots := 4096
			if full {
				slots = 65536
			}
			return result(MeasureThrash(slots, nil, 2))
		}},
	{ID: "s52c", Title: "MP3D page locality (paper §5.2: up to 25% degradation)",
		Run: func(bool) (fmt.Stringer, error) { return result(MeasureMP3D(simk.MP3DConfig{})) }},
	{ID: "a1", Title: "reverse-TLB vs two-stage signal delivery (paper §4.1)",
		Run: func(bool) (fmt.Stringer, error) { return result(MeasureSignalAblation()) }},
	{ID: "a7", Title: "database paging policy (paper §1 motivation)",
		Run: func(bool) (fmt.Stringer, error) { return result(MeasureDB()) }},
	// The scripted crash, the fleet and the 16-MPM fork boot stay out of
	// "all", so its output is fast and byte-stable across commits.
	{ID: "rec", Title: "crash recovery latency (paper §3: all Cache Kernel state is regenerable)",
		OptIn: true, Bench: "BENCH_recovery.json",
		Run: func(bool) (fmt.Stringer, error) { return result(RunRecoveryWorkload(nil)) }},
	{ID: "orch", Title: "live migration blackout under a rolling upgrade (DESIGN §12)",
		OptIn: true, Bench: "BENCH_orchestration.json",
		Run: func(bool) (fmt.Stringer, error) { return result(RunOrchestrationWorkload(nil)) }},
	{ID: "fork", Title: "whole-machine snapshot/fork cost (DESIGN §13)",
		OptIn: true, Bench: "BENCH_fork.json",
		Run: func(bool) (fmt.Stringer, error) {
			r, err := MeasureFork()
			if err != nil {
				return nil, err
			}
			if r.ForkToBootRatio > 0.10 {
				return r, fmt.Errorf("fork costs %.1f%% of a boot; boot-once/fork-many needs <= 10%%", 100*r.ForkToBootRatio)
			}
			return r, nil
		}},
}

// result drops a failed measurement's zero value, so only real results
// are reported.
func result[R fmt.Stringer](r R, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// table2Report is Table 2 followed by the counters of the run that
// measured it.
type table2Report struct{ ck.Table2 }

func (r table2Report) String() string { return r.Table2.String() + "\n" + r.Counters() }

// IDs lists the experiment ids in table order.
func IDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}

// Select resolves a comma-separated -exp list to catalog entries in
// table order. "all" selects every entry that is not opt-in; any other
// id must name an entry.
func Select(list string) ([]Experiment, error) {
	want := strings.Split(list, ",")
	for i, id := range want {
		want[i] = strings.TrimSpace(id)
		if want[i] != "all" && !slices.Contains(IDs(), want[i]) {
			return nil, fmt.Errorf("unknown experiment %q; valid ids: all, %s", want[i], strings.Join(IDs(), ", "))
		}
	}
	var sel []Experiment
	for _, e := range Experiments {
		if slices.Contains(want, e.ID) || slices.Contains(want, "all") && !e.OptIn {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// BenchJSON encodes a result as the contents of its BENCH_*.json report.
func BenchJSON(res any) ([]byte, error) {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
