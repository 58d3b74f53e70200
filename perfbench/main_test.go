package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// The test binary doubles as the child process, as the benchmark binary
// does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(m.Run())
}

// panicSeed is the stub scenario that kills its process.
const panicSeed = 13

func init() {
	workloads = append(workloads, &workload{
		name: "panic-stub",
		why:  "test stub: scenario 13 panics and takes its process down",
		warm: func() error { return nil },
		run: func(s uint64, _ *tracer) outcome {
			if s == panicSeed {
				panic("stub: deliberate panic in scenario 13")
			}
			return outcome{Digest: s * 7}
		},
		topology: func(uint64) (hw.Config, []ck.Config) { return hw.DefaultConfig(), []ck.Config{{}} },
	})
}

func testSupervisor(t *testing.T, workload string) *supervisor {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return newSupervisor(exe, workload)
}

func TestTailRuleOmitsThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if _, beyond, ok := tailP90(seq(90)); ok || beyond != 9 {
		t.Errorf("90 samples: beyond=%d ok=%t, want 9 beyond and omitted", beyond, ok)
	}
	if p90, beyond, ok := tailP90(seq(100)); !ok || beyond != 10 || math.Abs(p90-90.1) > 1e-9 {
		t.Errorf("100 samples: p90=%v beyond=%d ok=%t, want 90.1 with 10 beyond", p90, beyond, ok)
	}
	same := make([]float64, 500)
	if _, beyond, ok := tailP90(same); ok || beyond != 0 {
		t.Errorf("500 equal samples: beyond=%d ok=%t, want none beyond and omitted", beyond, ok)
	}
	if _, _, ok := tailP90(nil); ok {
		t.Error("no samples: p90 reported")
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("3,10-12,,76")
	if err != nil || fmt.Sprint(got) != "[3 10 11 12 76]" {
		t.Errorf("parseSeeds = %v, %v", got, err)
	}
	for _, bad := range []string{"x", "5-", "9-3", "-4"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q): no error", bad)
		}
	}
}

func TestLayerOfInnermostModuleFrame(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "vpp/internal/hw.NewL2Cache", "vpp/internal/hw.NewMachine", "vpp/internal/simtest.runWithOpts", "main.runOps"}, "hw"},
		{[]string{"vpp/internal/hw/dev.(*NIC).Send", "vpp/internal/netboot.(*Stack).Send"}, "hw"},
		{[]string{"vpp/internal/ck.(*Kernel).LoadMapping", "vpp/internal/simtest.(*node).runOp"}, "ck"},
		{[]string{"vpp/internal/aklib.(*AppKernel).NewThread.func1", "vpp/internal/sim.(*Engine).startCoro.func1"}, "appk"},
		{[]string{"runtime.chanrecv", "vpp/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"vpp/internal/simtest.(*harness).failf", "vpp/internal/ck.(*Kernel).CheckInvariants"}, "simtest"},
		{[]string{"vpp/internal/snap.(*Image).Fork"}, "snap"},
		{[]string{"vpp/internal/ckctl.(*Cluster).reconcile"}, "ckctl"},
		{[]string{"vpp/internal/chaos.(*Injector).drop"}, "chaos"},
		{[]string{"vpp/internal/exp.thrashOne.func1"}, "exp"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime/internal/syscall.Syscall6", "runtime.futex", "runtime.mstart"}, "runtime"},
		{[]string{"encoding/json.Marshal", "main.childMain", "runtime.main"}, "other"},
		{[]string{"vpp/internal/lint.run"}, "other"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestByLayerSkipsProbeSamples(t *testing.T) {
	p := &profile{
		types: []string{"samples", "cpu"},
		funcs: map[uint64]string{1: "vpp/internal/hw.(*Exec).Store32", 2: "vpp/internal/ck.(*Kernel).fault", 3: "runtime.gcBgMarkWorker", 4: "vpp/internal/hw.NewMachine"},
		// Location 10 has ck's fault inlined into hw's Store32: the
		// innermost frame comes first.
		locs: map[uint64][]uint64{10: {1, 2}, 20: {2}, 30: {3}, 40: {4}},
		samples: []pSample{
			{locs: []uint64{10}, values: []int64{1, 100}},
			{locs: []uint64{20}, values: []int64{1, 30}},
			{locs: []uint64{30}, values: []int64{1, 5}},
			{locs: []uint64{40, 20}, values: []int64{1, 1000}, labels: map[string]string{probeKey: probeVal}},
		},
	}
	got, err := p.byLayer("cpu", probeKey, probeVal)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"hw": 100, "ck": 30, "runtime": 5}
	if len(got) != len(want) {
		t.Fatalf("byLayer = %v, want %v", got, want)
	}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("byLayer[%s] = %d, want %d (all: %v)", l, got[l], v, got)
		}
	}
	if _, err := p.byLayer("alloc_space", "", ""); err == nil {
		t.Error("byLayer of a missing value type: no error")
	}
}

var sink [][]byte

func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<20))
	}
	sink = nil
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p.types, ",") != "alloc_objects,alloc_space,inuse_objects,inuse_space" {
		t.Errorf("sample types %v", p.types)
	}
	byLayer, err := p.byLayer("alloc_space", "", "")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range byLayer {
		total += v
	}
	if total <= 0 || len(p.funcs) == 0 {
		t.Errorf("profile decoded to %d functions and %d bytes allocated", len(p.funcs), total)
	}
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("truncated profile: no error")
	}
}

func TestCrashIsolation(t *testing.T) {
	sup := testSupervisor(t, "panic-stub")
	list := []uint64{11, 12, panicSeed, 14, 15}
	p, err := sup.runPass(list, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.scenarios) != len(list) || len(p.children) != 2 {
		t.Fatalf("%d scenarios in %d children, want %d in 2", len(p.scenarios), len(p.children), len(list))
	}
	for i, r := range p.scenarios {
		if r.seed != list[i] {
			t.Errorf("scenario %d is seed %d, want %d", i, r.seed, list[i])
		}
		if failed := r.out.Fail != ""; failed != (r.seed == panicSeed) {
			t.Errorf("seed %d: fail %q", r.seed, r.out.Fail)
		}
	}
	if got := p.scenarios[2].out.Fail; got != "panic: stub: deliberate panic in scenario 13" {
		t.Errorf("panic recorded as %q", got)
	}
	if p.children[0].end != nil || p.children[1].end == nil || p.children[1].scenarios != 2 {
		t.Errorf("children: first ended=%t, second ended=%t with %d scenarios",
			p.children[0].end != nil, p.children[1].end != nil, p.children[1].scenarios)
	}
	// The dead scenario fails the same way every pass, so it does not
	// also count as a digest mismatch.
	p2, err := sup.runPass(list, false)
	if err != nil {
		t.Fatal(err)
	}
	if p2.digest != p.digest {
		t.Errorf("pass digests differ: %016x vs %016x", p2.digest, p.digest)
	}
}

func TestDigestStableAcrossRuns(t *testing.T) {
	list := []uint64{5, 6, 7}
	var digests []uint64
	for run := 0; run < 2; run++ {
		sup := testSupervisor(t, "cksim-ops")
		for _, traced := range []bool{false, true} {
			p, err := sup.runPass(list, traced)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range p.scenarios {
				if r.out.Fail != "" {
					t.Errorf("run %d traced=%t seed %d: %s", run, traced, r.seed, r.out.Fail)
				}
			}
			digests = append(digests, p.digest)
		}
	}
	for i, d := range digests {
		if d != digests[0] {
			t.Errorf("pass %d digest %016x, want %016x", i, d, digests[0])
		}
	}
}

func TestListIsSeededStratifiedAndClean(t *testing.T) {
	w := lookupWorkload("cksim-ops")
	a, b, c := w.list(1), w.list(1), w.list(2)
	if len(a) != w.size {
		t.Fatalf("list has %d seeds, want %d", len(a), w.size)
	}
	seen := map[uint64]bool{}
	for i, s := range a {
		if s != b[i] {
			t.Fatal("same workload seed gave different lists")
		}
		if seen[s] {
			t.Errorf("seed %d listed twice", s)
		}
		seen[s] = true
	}
	for _, bad := range w.knownBad {
		if seen[bad] {
			t.Errorf("known-bad seed %d listed", bad)
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("workload seeds 1 and 2 gave the same list")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	for _, wl := range spec.Workloads {
		if w := lookupWorkload(wl.Name); w == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the benchmark", wl.Name)
		} else if w.why != wl.Why {
			t.Errorf("workload %s: BENCHMARK.json gives its rationale as %q, the usage text as %q", wl.Name, wl.Why, w.why)
		}
	}
}
