// Command perfpair compares two sets of perfbench runs by the rules a
// performance change in this repository must meet. It reads the saved
// standard output of alternating parent and change runs, pairs them in
// file-name order, and prints for each metric both sides' median and
// quartiles, the change's median over the parent's, the no-regression
// verdict, and how many pairs the change won. It also reports whether
// every run printed the same virtual_digest, and how many scenario runs
// failed on each side.
//
// The bound column applies the no-regression rule to each end-to-end
// metric, with the bound BENCHMARK.json fixes for it as a fraction of
// the parent's median: "worse" when the change's median is worse than
// the parent's by more than the bound; otherwise "unresolved" when the
// parent's interquartile range is wider than the bound, unless every
// change run beats every parent run; "ok" in every other case. A
// per-layer metric has no bound and reads "-".
//
// The claim column applies the rule a gain must meet: at least ten
// pairs, the change winning at least nine tenths of them, ties counting
// for neither, its median beating the parent's by more than the
// parent's interquartile range, and no larger share of its scenario
// runs failed.
//
// Usage, from the repository root:
//
//	perfpair -parent 'runs/parent-*.txt' -change 'runs/change-*.txt'
//
// Which way is better for each metric, and each end-to-end metric's
// bound, come from BENCHMARK.json (-bench). The exit status is 1 when
// the runs' virtual digests differ, since their host times then measure
// different simulations, and 2 for bad arguments or unreadable runs.
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
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfpair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parentGlob := fs.String("parent", "", "glob of the parent's saved perfbench outputs")
	changeGlob := fs.String("change", "", "glob of the change's saved perfbench outputs, in the same order")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration naming which way each metric is better and its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentGlob == "" || *changeGlob == "" || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfpair: %v\n", err)
		return 2
	}
	decls, err := readDecls(*benchPath)
	if err != nil {
		return fail(err)
	}
	parent, err := readRuns(*parentGlob)
	if err != nil {
		return fail(err)
	}
	change, err := readRuns(*changeGlob)
	if err != nil {
		return fail(err)
	}
	rows, err := compare(parent, change, decls)
	if err != nil {
		return fail(err)
	}
	return report(stdout, parent, change, rows)
}

// benchRun is one perfbench run's saved output.
type benchRun struct {
	file        string
	digest      string            // the first pass's virtual digest
	passesAgree bool              // every pass of the run printed that digest
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
}

// metric is one figure of perfbench's JSON result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// readRuns reads the runs matching pattern, in sorted name order.
func readRuns(pattern string) ([]benchRun, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no file matches %q", pattern)
	}
	sort.Strings(files)
	runs := make([]benchRun, 0, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r, err := parseRun(string(b))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		r.file = f
		runs = append(runs, r)
	}
	return runs, nil
}

// parseRun reads perfbench's standard output: report lines starting
// with "# ", among them the virtual_digest line, then one JSON result
// line last.
func parseRun(out string) (benchRun, error) {
	var r benchRun
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "# virtual_digest: "); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return r, errors.New("empty virtual_digest line")
			}
			r.digest = fields[0]
			r.passesAgree = strings.Contains(rest, "identical=true")
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if r.digest == "" {
		return r, errors.New("no virtual_digest line")
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("last line is not a perfbench result: %w", err)
	}
	if len(r.Metrics) == 0 {
		return r, errors.New("result line has no metrics")
	}
	return r, nil
}

// decl is one metric BENCHMARK.json declares: which way is better,
// "lower" or "higher", and for an end-to-end metric the fraction of the
// parent's median by which it may worsen (0 for a per-layer metric).
type decl struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readDecls maps each metric BENCHMARK.json declares to its
// declaration.
func readDecls(path string) (map[string]decl, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	decls := map[string]decl{}
	for i, d := range append(bench.EndToEnd, bench.PerLayer...) {
		if d.Better != "lower" && d.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s is better %q, want lower or higher", path, d.Name, d.Better)
		}
		if i < len(bench.EndToEnd) && d.Bound <= 0 {
			return nil, fmt.Errorf("%s: end-to-end metric %s has bound %v, want a positive fraction", path, d.Name, d.Bound)
		}
		decls[d.Name] = d
	}
	return decls, nil
}

// spread is one side's median and quartiles of a metric.
type spread struct{ q1, med, q3 float64 }

func spreadOf(xs []float64) spread {
	return spread{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, as perfbench computes its own. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// row is one metric's comparison.
type row struct {
	name, unit, better string
	bound              float64 // the end-to-end bound, 0 for a per-layer metric
	parent, change     spread
	wins, pairs        int
	beyondIQR          bool // the medians differ by more than the parent's IQR, the change's way
	sweep              bool // every change run beats every parent run
	moreFailures       bool // a larger share of the change's scenario runs failed
}

// minPairs is the fewest pairs a claim may rest on.
const minPairs = 10

// holds reports whether the row meets the claim rule.
func (r row) holds() bool {
	return r.pairs >= minPairs && r.wins*10 >= r.pairs*9 && r.beyondIQR && !r.moreFailures
}

// verdict applies the no-regression rule: "worse" when the change's
// median is worse than the parent's by more than the bound, otherwise
// "unresolved" when the parent's IQR is wider than the bound unless the
// change swept every pair of runs, and "ok"; "-" without a bound.
func (r row) verdict() string {
	if r.bound == 0 {
		return "-"
	}
	worse := r.parent.med - r.change.med
	if r.better == "lower" {
		worse = -worse
	}
	limit := r.bound * r.parent.med
	switch {
	case worse > limit:
		return "worse"
	case r.parent.q3-r.parent.q1 > limit && !r.sweep:
		return "unresolved"
	}
	return "ok"
}

// failures totals the scenario runs attempted and failed over runs.
func failures(runs []benchRun) (attempted, failed int) {
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return attempted, failed
}

// compare pairs run i of parent with run i of change and compares every
// metric the runs report.
func compare(parent, change []benchRun, decls map[string]decl) ([]row, error) {
	if len(parent) != len(change) {
		return nil, fmt.Errorf("%d parent runs but %d change runs; runs are compared in pairs", len(parent), len(change))
	}
	var names []string
	for name := range parent[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	pa, pf := failures(parent)
	ca, cf := failures(change)
	moreFailures := cf*pa > pf*ca // cf/ca > pf/pa, without dividing by zero
	var rows []row
	for _, name := range names {
		d, ok := decls[name]
		if !ok {
			return nil, fmt.Errorf("metric %s is not declared in the benchmark", name)
		}
		dir := d.Better
		var ps, cs []float64
		wins := 0
		for i := range parent {
			p, pok := parent[i].Metrics[name]
			c, cok := change[i].Metrics[name]
			if !pok || !cok {
				return nil, fmt.Errorf("metric %s missing from pair %d (%s, %s)", name, i+1, parent[i].file, change[i].file)
			}
			ps, cs = append(ps, p.Value), append(cs, c.Value)
			if (dir == "lower" && c.Value < p.Value) || (dir == "higher" && c.Value > p.Value) {
				wins++
			}
		}
		r := row{name: name, unit: parent[0].Metrics[name].Unit, better: dir, bound: d.Bound,
			parent: spreadOf(ps), change: spreadOf(cs), wins: wins, pairs: len(parent), moreFailures: moreFailures}
		gap := r.change.med - r.parent.med
		pmin, pmax, cmin, cmax := slices.Min(ps), slices.Max(ps), slices.Min(cs), slices.Max(cs)
		r.sweep = cmin > pmax
		if dir == "lower" {
			gap = -gap
			r.sweep = cmax < pmin
		}
		r.beyondIQR = gap > r.parent.q3-r.parent.q1
		rows = append(rows, r)
	}
	return rows, nil
}

// report prints the comparison and returns the exit status.
func report(out io.Writer, parent, change []benchRun, rows []row) int {
	status := 0
	all := append(append([]benchRun(nil), parent...), change...)
	digest, agree := parent[0].digest, true
	for _, r := range all {
		if r.digest != digest || !r.passesAgree {
			agree = false
		}
	}
	if agree {
		fmt.Fprintf(out, "virtual_digest: %s in all %d runs\n", digest, len(all))
	} else {
		status = 1
		fmt.Fprintln(out, "virtual_digest: DIFFERS")
		for _, r := range all {
			fmt.Fprintf(out, "  %s %s (passes agree: %t)\n", r.file, r.digest, r.passesAgree)
		}
	}
	for _, side := range []struct {
		name string
		runs []benchRun
	}{{"parent", parent}, {"change", change}} {
		att, failed := failures(side.runs)
		fmt.Fprintf(out, "failed: %s %d of %d scenario runs\n", side.name, failed, att)
	}
	fmt.Fprintf(out, "pairs: %d; a claim holds with at least %d pairs, %d wins, a median gap beyond the parent's IQR and no larger share of failed runs\n",
		len(parent), minPairs, (len(parent)*9+9)/10)
	fmt.Fprint(out, "bound: worse when the change's median is worse by more than the bound, unresolved when the parent's IQR is wider than the bound and the change did not beat every parent run\n\n")
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tparent median [q1, q3]\tchange median [q1, q3]\tchange/parent\tbound\twins\tgap > IQR\tclaim")
	for _, r := range rows {
		ratio := "-"
		if r.parent.med != 0 {
			ratio = fmt.Sprintf("%.3f", r.change.med/r.parent.med)
		}
		claim := "no"
		if r.holds() {
			claim = "holds"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d/%d\t%t\t%s\n", r.name, r.unit, r.better,
			fmtSpread(r.parent), fmtSpread(r.change), ratio, r.verdict(), r.wins, r.pairs, r.beyondIQR, claim)
	}
	tw.Flush()
	return status
}

func fmtSpread(s spread) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3)
}
