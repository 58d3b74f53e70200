// Command perfbench is the repository's host-time benchmark. It times
// four workloads through the program's public functions, checks that
// every scenario's simulated results are correct and repeat exactly,
// and prints every metric by name with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cksim-ops --seed 1 --seconds 10 --trace 0
//
// Load is a closed loop: one goroutine runs one scenario at a time, and
// the next starts only when the previous one has finished (cksim-orch's
// second engine shard runs on a second goroutine).
// Each repetition (one pass over the run's scenario list) runs in a
// child process, so a scenario that kills its process is charged as
// failed and the next child resumes after it. --trace 1 runs half the
// time untraced and half traced, and reports the per-layer metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"scenarios_per_s", "1/s"},
	{"scenario_ms_p50", "ms"},
	{"peak_rss_mb", "MiB"},
}

// spanMetrics turns span names into per-scenario metrics.
var spanMetrics = []struct {
	span, metric string
	perNS        float64 // unit per nanosecond
}{
	{"simtest.generate", "simtest.generate_us", 1e-3},
	{"simtest.run", "simtest.run_ms", 1e-6},
	{"exp.table2", "exp.table2_ms", 1e-6},
	{"exp.thrash", "exp.thrash_ms", 1e-6},
	{"exp.mp3d", "exp.mp3d_ms", 1e-6},
	{"exp.signal", "exp.signal_ms", 1e-6},
	{"exp.db", "exp.db_ms", 1e-6},
	{"hw.new_machine", "hw.new_machine_ms", 1e-6},
	{"ck.new", "ck.new_ms", 1e-6},
}

var (
	cpuLayers   = []string{"sim", "hw", "ck", "appk", "simtest", "snap", "ckctl", "chaos", "exp", "runtime"}
	allocLayers = []string{"hw", "ck", "appk", "simtest", "snap"}
	countDefs   = []metricDef{
		{"sim.steps", "count"},
		{"sim.dispatches", "count"},
		{"chaos.faults", "count"},
		{"snap.forks", "count"},
		{"snap.snapshot_kb", "KiB"},
		{"snap.cow_pages", "count"},
		{"ckctl.migrated", "count"},
		{"ckctl.restarts", "count"},
		{"ckctl.blackout_max_ms", "ms"},
		{"ck.mapping_writebacks", "count"},
		{"hw.tlb_miss_ratio", "ratio"},
	}
)

// perLayer lists every metric a traced run reports, in order.
func perLayer() []metricDef {
	var defs []metricDef
	for _, s := range spanMetrics {
		unit := "ms"
		if strings.HasSuffix(s.metric, "_us") {
			unit = "us"
		}
		defs = append(defs, metricDef{s.metric, unit})
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_ms", "ms"})
	}
	for _, l := range allocLayers {
		defs = append(defs, metricDef{l + ".alloc_mb", "MiB"})
	}
	defs = append(defs,
		metricDef{"runtime.alloc_mb", "MiB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"sim.host_ns_per_step", "ns"})
	defs = append(defs, countDefs...)
	return append(defs,
		metricDef{"trace.scenarios_per_s", "1/s"},
		metricDef{"trace.untraced_scenarios_per_s", "1/s"},
		metricDef{"trace.overhead_pct", "%"})
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintf(w, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--seeds LIST]\n\nworkloads:\n")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-12s %s\n", wl.name, wl.why)
	}
	fmt.Fprintf(w, "\nflags:\n")
	fs.SetOutput(w)
	fs.PrintDefaults()
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "", "workload to run (see above)")
	seed := fs.Uint64("seed", 1, "workload seed: picks the run's scenario list")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for; every run makes at least two passes over its list")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a half-untraced, half-traced run")
	seedsFlag := fs.String("seeds", "", "run this scenario list instead, e.g. 70-80,446 (failing seeds included)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			usage(fs, stdout)
			return 0
		}
		usage(fs, os.Stderr)
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		usage(fs, os.Stderr)
		return 2
	}
	list := w.list(*seed)
	if *seedsFlag != "" {
		var err error
		if list, err = parseSeeds(*seedsFlag); err != nil || len(list) == 0 {
			fmt.Fprintf(os.Stderr, "bad --seeds %q: %v\n", *seedsFlag, err)
			return 2
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	sup := newSupervisor(exe, w.name)
	budget := time.Duration(*seconds * float64(time.Second))

	var untraced, traced []*pass
	if *trace == 1 {
		if untraced, err = sup.runPhase(list, false, budget/2, 1); err == nil {
			traced, err = sup.runPhase(list, true, budget/2, 1)
		}
	} else {
		untraced, err = sup.runPhase(list, false, budget, 2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	all := append(append([]*pass(nil), untraced...), traced...)
	var res result
	digests := map[uint64]bool{}
	var fails []string
	failRuns := map[string]int{}
	for _, p := range all {
		digests[p.digest] = true
		for _, r := range p.scenarios {
			res.Attempted++
			if r.out.Fail != "" {
				res.Failed++
				f := fmt.Sprintf("scenario %d: %s", r.seed, r.out.Fail)
				if failRuns[f] == 0 {
					fails = append(fails, f)
				}
				failRuns[f]++
			}
		}
	}
	res.Correct = res.Failed == 0 && len(digests) == 1
	// The spans go beside the binary, in the build directory.
	spansOut := filepath.Join(filepath.Dir(exe), fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
	if *trace == 1 {
		if res.Metrics, err = perLayerMetrics(untraced, traced, spansOut); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		res.Metrics = endToEndMetrics(untraced)
	}

	report(stdout, w, *seed, list, all, res, fails, failRuns)
	if *trace == 1 {
		fmt.Fprintf(stdout, "# spans: %s\n", spansOut)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func endToEndMetrics(passes []*pass) map[string]metric {
	var setups, rss, rates, durs []float64
	for _, p := range passes {
		rates = append(rates, p.rate())
		for _, c := range p.children {
			setups = append(setups, c.setupS)
			rss = append(rss, c.rssMB)
		}
		for _, r := range p.scenarios {
			if r.out.Fail == "" {
				durs = append(durs, r.ms)
			}
		}
	}
	vals := map[string]float64{
		"setup_s":         median(setups),
		"scenarios_per_s": median(rates),
		"scenario_ms_p50": median(durs),
		"peak_rss_mb":     median(rss),
	}
	m := map[string]metric{}
	for _, d := range endToEnd {
		m[d.name] = metric{vals[d.name], d.unit}
	}
	return m
}

// perLayerMetrics computes every per-layer metric, per scenario: spans
// and profiles from the traced passes, runtime counters and work counts
// from the untraced ones. It writes the spans to spansOut.
func perLayerMetrics(untraced, traced []*pass, spansOut string) (map[string]metric, error) {
	m := map[string]metric{}
	units := map[string]string{}
	for _, d := range perLayer() {
		units[d.name] = d.unit
		m[d.name] = metric{0, d.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, units[name]} }

	var tracedN, untracedN int
	spanNS := map[string]int64{}
	cpuNS := map[string]int64{}
	allocB := map[string]int64{}
	var spans []span
	var steps float64
	for _, p := range traced {
		for _, r := range p.scenarios {
			if r.out.Fail == "" {
				tracedN++
				steps += r.out.Counts["sim.steps"]
			}
		}
		for _, c := range p.children {
			if c.end == nil {
				continue
			}
			for _, sp := range c.end.Spans {
				spanNS[sp.Name] += sp.End - sp.Start
			}
			spans = append(spans, c.end.Spans...)
			for l, v := range c.end.CPUNS {
				cpuNS[l] += v
			}
			for l, v := range c.end.AllocByLay {
				allocB[l] += v
			}
		}
	}
	var allocBytes, gcs float64
	counts := map[string]float64{}
	for _, p := range untraced {
		for _, r := range p.scenarios {
			if r.out.Fail == "" {
				untracedN++
				for k, v := range r.out.Counts {
					counts[k] += v
				}
			}
		}
		for _, c := range p.children {
			if c.end != nil {
				allocBytes += float64(c.end.AllocBytes)
				gcs += float64(c.end.GCCycles)
			}
		}
	}
	if tracedN == 0 || untracedN == 0 {
		return nil, fmt.Errorf("no scenario completed (traced %d, untraced %d)", tracedN, untracedN)
	}
	per := func(v float64) float64 { return v / float64(tracedN) }
	for _, s := range spanMetrics {
		set(s.metric, per(float64(spanNS[s.span])*s.perNS))
	}
	for _, l := range cpuLayers {
		set(l+".cpu_ms", per(float64(cpuNS[l])/1e6))
	}
	for _, l := range allocLayers {
		set(l+".alloc_mb", per(float64(allocB[l])/(1<<20)))
	}
	set("runtime.alloc_mb", allocBytes/(1<<20)/float64(untracedN))
	set("runtime.gc_cycles", gcs/float64(untracedN))
	if steps > 0 {
		set("sim.host_ns_per_step", float64(spanNS["simtest.run"])/steps)
	}
	for _, d := range countDefs {
		set(d.name, counts[d.name]/float64(untracedN))
	}
	tRate, uRate := medianRate(traced), medianRate(untraced)
	set("trace.scenarios_per_s", tRate)
	set("trace.untraced_scenarios_per_s", uRate)
	set("trace.overhead_pct", 100*(uRate/tRate-1))

	if err := writeSpans(spansOut, spans); err != nil {
		return nil, err
	}
	return m, nil
}

func medianRate(passes []*pass) float64 {
	var rates []float64
	for _, p := range passes {
		rates = append(rates, p.rate())
	}
	return median(rates)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// report prints the run's stamp, correctness and metrics for a reader,
// each line starting with "# ".
func report(out io.Writer, w *workload, seed uint64, list []uint64, passes []*pass, res result, fails []string, failRuns map[string]int) {
	p := func(format string, args ...any) { fmt.Fprintf(out, "# "+format+"\n", args...) }
	p("perfbench %s: %s", w.name, w.why)
	p("stamp: go=%s os/arch=%s/%s nproc=%d gomaxprocs=%d revision=%s seed=%d scenarios=%d passes=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		revision(), seed, len(list), len(passes))
	var durs, errPct []float64
	children := 0
	for _, ps := range passes {
		children += len(ps.children)
		for _, r := range ps.scenarios {
			if r.out.Fail == "" {
				if r.ms > 0 {
					durs = append(durs, r.ms)
				}
				if v, ok := r.out.Counts["table2_err_max_pct"]; ok {
					errPct = append(errPct, v)
				}
			}
		}
	}
	var ds []string
	for _, ps := range passes {
		ds = append(ds, fmt.Sprintf("%016x", ps.digest))
	}
	p("virtual_digest: %s (one per pass; identical=%t)", ds[0], allSame(ds))
	p("fail_ratio: %.6f (%d of %d scenario runs, %d child processes)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, children)
	for i, f := range fails {
		if i == 10 {
			p("  ... %d more", len(fails)-10)
			break
		}
		p("  %s (%d runs)", f, failRuns[f])
	}
	if p90, beyond, ok := tailP90(durs); ok {
		p("scenario_ms_p90: %.4f ms (n=%d, %d beyond)", p90, len(durs), beyond)
	} else {
		p("scenario_ms_p90: omitted (n=%d, only %d beyond p90; needs %d)", len(durs), beyond, minTail)
	}
	if len(errPct) > 0 {
		p("table2_err_max_pct: %.4f %%", median(errPct))
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		p("%-32s %14.6g %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func allSame(xs []string) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// revision is the git revision the binary was built from, when the build
// could see one.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// parseSeeds reads a comma-separated list of seeds and inclusive ranges
// ("3,10-12").
func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, err
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil {
				return nil, err
			}
		}
		if b < a || b-a > 1<<20 {
			return nil, fmt.Errorf("bad range %q", part)
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	return out, nil
}
