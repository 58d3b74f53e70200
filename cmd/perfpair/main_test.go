package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes one perfbench-shaped output per value, named
// <side>-NN.txt, each reporting the end-to-end metrics
// scenarios_per_s = values[i] and setup_s = 1/values[i], the per-layer
// metric exp.table2_ms = 1/values[i], and failed of its 20 scenario
// runs failed.
func writeRuns(t *testing.T, dir, side, digest string, failed int, values []float64) {
	t.Helper()
	for i, v := range values {
		res := map[string]any{
			"correct": failed == 0, "attempted": 20, "failed": failed,
			"metrics": map[string]any{
				"scenarios_per_s": map[string]any{"value": v, "unit": "1/s"},
				"setup_s":         map[string]any{"value": 1 / v, "unit": "s"},
				"exp.table2_ms":   map[string]any{"value": 1 / v, "unit": "ms"},
			},
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("# perfbench cksim-fork: fork seeds\n# virtual_digest: %s (one per pass; identical=true)\n# fail_ratio: %f (%d of 20 scenario runs, 2 child processes)\n%s\n", digest, float64(failed)/20, failed, line)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%02d.txt", side, i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// perfpair runs the command on dir's parent-*.txt and change-*.txt
// against the repository's BENCHMARK.json.
func perfpair(t *testing.T, dir string) (string, int) {
	t.Helper()
	var out, errs strings.Builder
	code := run([]string{
		"-parent", filepath.Join(dir, "parent-*.txt"),
		"-change", filepath.Join(dir, "change-*.txt"),
		"-bench", "../../BENCHMARK.json",
	}, &out, &errs)
	return out.String() + errs.String(), code
}

// metricLine returns the report row for name.
func metricLine(t *testing.T, out, name string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	t.Fatalf("no %s row in:\n%s", name, out)
	return ""
}

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := spreadOf(xs); got != (spread{3.25, 5.5, 7.75}) {
		t.Fatalf("spreadOf(1..10) = %+v, want {3.25 5.5 7.75}", got)
	}
	if got := quantile([]float64{4}, 0.75); got != 4 {
		t.Fatalf("quantile of one value = %v, want 4", got)
	}
}

// TestClaimRule pins the rule a claim must meet, for a metric where
// higher is better and one where lower is: at least ten pairs, at least
// nine tenths of them won, ties counting for neither, a median gap
// beyond the parent's interquartile range, the change's way, and no
// larger share of failed scenario runs than the parent's.
func TestClaimRule(t *testing.T) {
	parent := []float64{80, 82, 78, 85, 81, 79, 83, 84, 80, 82}
	wide := []float64{270, 265, 260, 275, 268, 262, 271, 266, 269, 264}
	cases := []struct {
		name           string
		parent, change []float64
		changeFailed   int
		wins           string
		holds          bool
	}{
		{"ten_wins_wide_gap", parent, wide, 0, "10/10", true},
		{"nine_wins", parent, []float64{270, 265, 260, 275, 268, 262, 271, 266, 269, 70}, 0, "9/10", true},
		{"eight_wins", parent, []float64{270, 265, 260, 275, 268, 262, 271, 266, 70, 70}, 0, "8/10", false},
		{"ties_count_for_neither", parent, []float64{270, 265, 260, 275, 268, 262, 271, 266, 80, 82}, 0, "8/10", false},
		{"gap_inside_parent_iqr", parent, []float64{81, 83, 79, 86, 82, 80, 84, 85, 81, 83}, 0, "10/10", false},
		{"too_few_pairs", parent[:5], wide[:5], 0, "5/5", false},
		{"more_failures", parent, wide, 1, "10/10", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRuns(t, dir, "parent", "12cc8dfc01bfc44e", 0, tc.parent)
			writeRuns(t, dir, "change", "12cc8dfc01bfc44e", tc.changeFailed, tc.change)
			out, code := perfpair(t, dir)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, out)
			}
			want := "no"
			if tc.holds {
				want = "holds"
			}
			// setup_s is 1/scenarios_per_s: lower is better, so every
			// pair goes the same way for both metrics.
			for _, m := range []string{"scenarios_per_s", "setup_s"} {
				f := strings.Fields(metricLine(t, out, m))
				if got := f[len(f)-3]; got != tc.wins {
					t.Errorf("%s wins = %s, want %s", m, got, tc.wins)
				}
				if got := f[len(f)-1]; got != want {
					t.Errorf("%s claim = %s, want %s:\n%s", m, got, want, out)
				}
			}
			if want := fmt.Sprintf("virtual_digest: 12cc8dfc01bfc44e in all %d runs", 2*len(tc.parent)); !strings.Contains(out, want) {
				t.Errorf("digest agreement not reported:\n%s", out)
			}
		})
	}
}

// TestBoundRule pins the no-regression rule of the bound column, for
// the end-to-end metrics scenarios_per_s (higher is better) and setup_s
// (lower is better), both with BENCHMARK.json's bound of 0.25: worse
// when the change's median is worse than the parent's by more than a
// quarter of it; otherwise unresolved when the parent's IQR is wider
// than that quarter, unless every change run beats every parent run;
// otherwise ok. The per-layer exp.table2_ms has no bound and reads "-".
func TestBoundRule(t *testing.T) {
	tight := []float64{80, 82, 78, 85, 81, 79, 83, 84, 80, 82}   // IQR 2.75 around 81.5
	wide := []float64{40, 120, 60, 100, 80, 45, 115, 70, 90, 85} // IQR 35 around 82.5
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"ok_within_bound", tight, scale(tight, 0.9), "ok"},
		{"worse_beyond_bound", tight, scale(tight, 0.7), "worse"},
		{"unresolved_wide_parent", wide, wide, "unresolved"},
		{"better_inside_wide_parent", wide, scale(wide, 1.1), "unresolved"},
		{"sweep_resolves_wide_parent", wide, []float64{130, 131, 132, 133, 134, 135, 136, 137, 138, 139}, "ok"},
		{"worse_despite_wide_parent", wide, scale(wide, 0.6), "worse"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeRuns(t, dir, "parent", "12cc8dfc01bfc44e", 0, tc.parent)
			writeRuns(t, dir, "change", "12cc8dfc01bfc44e", 0, tc.change)
			out, code := perfpair(t, dir)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, out)
			}
			for m, want := range map[string]string{"scenarios_per_s": tc.want, "setup_s": tc.want, "exp.table2_ms": "-"} {
				f := strings.Fields(metricLine(t, out, m))
				if got := f[len(f)-4]; got != want {
					t.Errorf("%s bound = %s, want %s:\n%s", m, got, want, out)
				}
			}
		})
	}
}

// TestEndToEndMetricNeedsBound checks that a benchmark declaring an
// end-to-end metric without a positive bound is refused, since its
// no-regression verdict could not be given.
func TestEndToEndMetricNeedsBound(t *testing.T) {
	dir := t.TempDir()
	writeRuns(t, dir, "parent", "12cc8dfc01bfc44e", 0, []float64{80})
	writeRuns(t, dir, "change", "12cc8dfc01bfc44e", 0, []float64{81})
	bench := filepath.Join(dir, "bench.json")
	decl := `{"end_to_end": [{"name": "scenarios_per_s", "better": "higher"}], "per_layer": []}`
	if err := os.WriteFile(bench, []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errs strings.Builder
	code := run([]string{"-parent", filepath.Join(dir, "parent-*.txt"), "-change", filepath.Join(dir, "change-*.txt"), "-bench", bench}, &out, &errs)
	if code != 2 || !strings.Contains(errs.String(), "scenarios_per_s has bound 0") {
		t.Fatalf("exit %d:\n%s%s", code, out.String(), errs.String())
	}
}

func TestDigestMismatchFails(t *testing.T) {
	dir := t.TempDir()
	writeRuns(t, dir, "parent", "12cc8dfc01bfc44e", 0, []float64{80, 81, 82})
	writeRuns(t, dir, "change", "12cc8dfc01bfc44e", 0, []float64{90, 91})
	writeRuns(t, dir, "change-x", "0000000000000001", 0, []float64{92})
	out, code := perfpair(t, dir)
	if code != 1 || !strings.Contains(out, "virtual_digest: DIFFERS") {
		t.Fatalf("exit %d, want 1 with DIFFERS:\n%s", code, out)
	}
}

func TestBadInputExits2(t *testing.T) {
	dir := t.TempDir()
	writeRuns(t, dir, "parent", "12cc8dfc01bfc44e", 0, []float64{80, 81, 82})
	writeRuns(t, dir, "change", "12cc8dfc01bfc44e", 0, []float64{90, 91})
	if out, code := perfpair(t, dir); code != 2 || !strings.Contains(out, "3 parent runs but 2 change runs") {
		t.Fatalf("unpaired runs: exit %d:\n%s", code, out)
	}
	if err := os.WriteFile(filepath.Join(dir, "change-09.txt"), []byte("# no result\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := perfpair(t, dir); code != 2 || !strings.Contains(out, "change-09.txt") {
		t.Fatalf("truncated run: exit %d:\n%s", code, out)
	}
}

// TestParsesPerfbenchOutput reads a saved perfbench run verbatim.
func TestParsesPerfbenchOutput(t *testing.T) {
	b, err := os.ReadFile("testdata/cksim-fork.txt")
	if err != nil {
		t.Fatal(err)
	}
	r, err := parseRun(string(b))
	if err != nil {
		t.Fatal(err)
	}
	if r.digest != "de9f1209785007b3" || !r.passesAgree || r.Attempted == 0 || r.Failed != 0 {
		t.Fatalf("parsed %+v", r)
	}
	for _, m := range []string{"setup_s", "scenarios_per_s", "scenario_ms_p50", "peak_rss_mb"} {
		if _, ok := r.Metrics[m]; !ok {
			t.Errorf("metric %s missing from %v", m, r.Metrics)
		}
	}
}
