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

	// inlineCodeRE matches an inline code span; cmdLineRE a command
	// line that runs one of the repository's tools.
	inlineCodeRE = regexp.MustCompile("`([^`\n]+)`")
	cmdLineRE    = regexp.MustCompile(`^(?:go run \./cmd/|\./)?([a-z]+)(?:\s|$)`)
	shellSepRE   = regexp.MustCompile(`&&|\|\||[;|]`)
	// flagDeclRE matches a flag declared through package flag or a
	// FlagSet named fs; caseFlagRE a flag parsed by hand in a switch.
	flagDeclRE = regexp.MustCompile(`\b(?:flag|fs)\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration)(?:Var)?\([^"\n]*"([\w-]+)"`)
	caseFlagRE = regexp.MustCompile(`(?m)^\s*case ("-[^:]*):`)
	quotedRE   = regexp.MustCompile(`"-{1,2}([\w-]+)"`)
)

// toolFlags maps each command under cmd/ to the flags its main.go
// declares: names passed to flag or a FlagSet (plus -h and -help, which
// package flag answers), or the case "-…" strings of a hand-written
// argument switch.
func toolFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	tools := map[string]map[string]bool{}
	for _, path := range mains {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{}
		for _, m := range flagDeclRE.FindAllSubmatch(src, -1) {
			flags[string(m[1])] = true
			flags["h"], flags["help"] = true, true
		}
		for _, c := range caseFlagRE.FindAllSubmatch(src, -1) {
			for _, m := range quotedRE.FindAllSubmatch(c[1], -1) {
				flags[string(m[1])] = true
			}
		}
		tools[filepath.Base(filepath.Dir(path))] = flags
	}
	return tools
}

// undeclaredFlags returns the flags a document's command lines pass to
// a tool that does not declare them. A command line is an inline code
// span or a code-block line, split at shell separators, that starts
// with <tool>, ./<tool> or go run ./cmd/<tool>; text that does not,
// such as prose naming "fork-vs-fresh", is not a command line.
func undeclaredFlags(doc string, tools map[string]map[string]bool) []string {
	var spans []string
	inBlock := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inBlock = !inBlock
			continue
		}
		if inBlock {
			spans = append(spans, line)
			continue
		}
		for _, m := range inlineCodeRE.FindAllStringSubmatch(line, -1) {
			spans = append(spans, m[1])
		}
	}
	var bad []string
	for _, span := range spans {
		for _, seg := range shellSepRE.Split(span, -1) {
			seg = strings.TrimPrefix(strings.TrimSpace(seg), "$ ")
			m := cmdLineRE.FindStringSubmatch(seg)
			if m == nil || tools[m[1]] == nil {
				continue
			}
			for _, tok := range strings.Fields(seg)[1:] {
				name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
				if !strings.HasPrefix(tok, "-") || name == "" || name[0] < 'a' || name[0] > 'z' {
					continue
				}
				if !tools[m[1]][name] {
					bad = append(bad, m[1]+" -"+name)
				}
			}
		}
	}
	return bad
}

// TestDocsNameWhatExists fails when a document names a Test… or
// Benchmark… function no _test.go file defines, an -exp id (comma
// lists included) that is neither "all" nor in exp.Experiments, or a
// command-line flag its tool does not declare (undeclaredFlags), and
// when an exp.Experiments id has no -exp mention in EXPERIMENTS.md.
func TestDocsNameWhatExists(t *testing.T) {
	tools := toolFlags(t)
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
		for _, f := range undeclaredFlags(string(src), tools) {
			t.Errorf("%s runs %s, which its main.go does not declare", doc, f)
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
// committed BENCH report holds only exact results and compares the
// report ckbench -json would write with the committed file, so a
// change that moves the simulation must regenerate it. The fork
// report's host timings are not written to its file, so one round of
// MeasureFork gives the same bytes as ckbench's repeated rounds; the
// experiment table's fork-to-boot gate has no place in this test.
func TestVirtualBenchReportsCurrent(t *testing.T) {
	t.Run("fork", func(t *testing.T) {
		r, err := exp.MeasureFork(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exp.BenchJSON(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("BENCH_fork.json")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("BENCH_fork.json is stale; regenerate it with `go run ./cmd/ckbench -exp fork -json`:\ngot:\n%s", got)
		}
	})

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
