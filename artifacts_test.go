package vpp

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vpp/internal/exp"
)

// docs are the documents that must name only tests, benchmarks and
// ckbench experiments that exist. CHANGES.md and ROADMAP.md are history
// and plans, so they may name what is gone or not yet built.
var docs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"}

var (
	docTestRE  = regexp.MustCompile(`\b(?:Test|Benchmark)[A-Z0-9_]\w*`)
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w+)\(`)
	docExpRE   = regexp.MustCompile(`-exp[ =]([a-z0-9]+(?:,[a-z0-9]+)*)`)
)

// TestDocsNameWhatExists fails when a document names a Test… or
// Benchmark… function no _test.go file defines, or an -exp id (comma
// lists included) that is neither "all" nor in exp.Experiments, and
// when an exp.Experiments id has no -exp mention in EXPERIMENTS.md.
func TestDocsNameWhatExists(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ids := map[string]bool{"all": true}
	for _, id := range exp.IDs() {
		ids[id] = true
	}
	inExperiments := map[string]bool{}
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docTestRE.FindAllString(string(src), -1) {
			if !defined[name] {
				t.Errorf("%s names %s, which no _test.go file defines", doc, name)
			}
		}
		for _, m := range docExpRE.FindAllStringSubmatch(string(src), -1) {
			for _, id := range strings.Split(m[1], ",") {
				if !ids[id] {
					t.Errorf("%s names -exp %s, which is not in exp.Experiments", doc, id)
				}
				if doc == "EXPERIMENTS.md" {
					inExperiments[id] = true
				}
			}
		}
	}
	for _, id := range exp.IDs() {
		if !inExperiments[id] {
			t.Errorf("EXPERIMENTS.md does not name experiment -exp %s", id)
		}
	}
}

// TestVirtualBenchReportsCurrent re-runs the experiments whose
// committed BENCH report holds only virtual-time results and compares
// the report ckbench -json would write with the committed file, so a
// change that moves the simulation must regenerate it.
func TestVirtualBenchReportsCurrent(t *testing.T) {
	sel, err := exp.Select("rec,orch")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sel {
		res, err := e.Run(false)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got, err := exp.BenchJSON(res)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		want, err := os.ReadFile(e.Bench)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale; regenerate it with `go run ./cmd/ckbench -exp %s -json`:\ngot:\n%s", e.Bench, e.ID, got)
		}
	}
}
