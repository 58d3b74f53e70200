// Command ckvet runs the internal/lint analyzer suite: static checks
// that the deterministic packages stay bit-deterministic, that
// simulated work charges the internal/hw cost model (DESIGN.md §7),
// that Cache Kernel cache-operation errors are handled, and that the
// engine's event pool grows only at its one refill point.
//
// Two modes share the same analyzers:
//
// Standalone, over go list patterns (the default is ./...):
//
//	go run ./cmd/ckvet ./...
//	go run ./cmd/ckvet -json ./...    # SARIF 2.1.0 on stdout
//	go run ./cmd/ckvet -allows ./...  # audit //ckvet:allow directives
//
// As a go vet tool, speaking the vet unit-checker protocol (-V=full
// handshake, then one vet.cfg JSON file per package):
//
//	go build -o bin/ckvet ./cmd/ckvet
//	go vet -vettool=bin/ckvet ./...
//
// Both modes type-check from export data the go command has already
// built, so ckvet needs no dependencies beyond the standard library.
// Exit status is nonzero when any unsuppressed diagnostic is reported;
// suppress individual findings with `//ckvet:allow <analyzer> <reason>`
// on or above the flagged line. The -allows audit exits nonzero when a
// directive is stale: it matched no diagnostic, so it suppresses
// nothing and should be deleted before it hides a future regression.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"vpp/internal/lint"
	"vpp/internal/lint/analysis"
)

func main() {
	args := os.Args[1:]

	// Tool-identification handshake: the go command invokes
	// `ckvet -V=full` once and uses the line as a cache key.
	for _, a := range args {
		if a == "-V=full" || a == "-V" {
			fmt.Println("ckvet version 1")
			return
		}
		// Flag-discovery handshake: the go command asks which flags the
		// tool accepts (as JSON) before building the vet command line.
		if a == "-flags" {
			fmt.Println("[]")
			return
		}
	}

	// Unit-checker mode: the go command passes a single *.cfg file.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnitchecker(args[0]))
	}

	// Standalone flags, parsed by hand so package patterns stay free-form.
	jsonOut, allowsMode := false, false
	var patterns []string
	for _, a := range args {
		switch a {
		case "-json", "--json":
			jsonOut = true
		case "-allows", "--allows":
			allowsMode = true
		default:
			patterns = append(patterns, a)
		}
	}
	if jsonOut && allowsMode {
		fmt.Fprintln(os.Stderr, "ckvet: -json and -allows are mutually exclusive")
		os.Exit(1)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(runStandalone(patterns, jsonOut, allowsMode))
}

// ---------------------------------------------------------------------
// go vet -vettool unit-checker protocol.

// vetConfig mirrors the JSON written by cmd/go for each vetted package
// (cmd/go/internal/work.vetConfig).
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ImportMap   map[string]string
	PackageFile map[string]string
	Standard    map[string]bool
	PackageVetx map[string]string
	VetxOnly    bool
	VetxOutput  string
	GoVersion   string

	SucceedOnTypecheckFailure bool
}

func runUnitchecker(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ckvet: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// ckvet carries no cross-package facts, but the go command expects
	// the facts file to exist for caching.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "ckvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}

	findings, _, err := checkPackage(cfg.ImportPath, cfg.GoFiles, cfg.Compiler, cfg.GoVersion, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "ckvet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		return 2
	}
	return 0
}

// ---------------------------------------------------------------------
// Standalone mode: load packages via `go list -deps -export`.

// listPackage is the subset of `go list -json` output ckvet needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
}

func runStandalone(patterns []string, jsonOut, allowsMode bool) int {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,ImportMap", "--"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ckvet: go list: %v\n", err)
		return 1
	}

	exportFile := map[string]string{}
	var targets []*listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(os.Stderr, "ckvet: parsing go list output: %v\n", err)
			return 1
		}
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly {
			pkg := p
			targets = append(targets, &pkg)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	exitCode := 0
	var all []finding
	var allowLedger []analysis.AllowRecord
	for _, p := range targets {
		lookup := func(path string) (io.ReadCloser, error) {
			if mapped, ok := p.ImportMap[path]; ok {
				path = mapped
			}
			file, ok := exportFile[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, joinPath(p.Dir, f))
		}
		findings, allows, err := checkPackage(p.ImportPath, files, "gc", "", lookup)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ckvet: %s: %v\n", p.ImportPath, err)
			exitCode = 1
			continue
		}
		all = append(all, findings...)
		allowLedger = append(allowLedger, allows...)
	}

	if allowsMode {
		return reportAllows(allowLedger, all, exitCode)
	}
	if jsonOut {
		if err := writeSARIF(os.Stdout, all); err != nil {
			fmt.Fprintf(os.Stderr, "ckvet: %v\n", err)
			return 1
		}
		if len(all) > 0 {
			return 1
		}
		return exitCode
	}
	for _, f := range all {
		fmt.Println(f)
		exitCode = 1
	}
	return exitCode
}

// reportAllows prints the //ckvet:allow ledger. A stale directive — one
// no diagnostic matched — fails the audit, as do malformed directives
// (already surfaced as ckvet pseudo-analyzer findings).
func reportAllows(ledger []analysis.AllowRecord, findings []finding, exitCode int) int {
	stale := 0
	for _, r := range ledger {
		mark := "used "
		if !r.Used {
			mark = "STALE"
			stale++
		}
		fmt.Printf("%s %s:%d: %s: %s\n", mark, relPath(r.Pos.Filename), r.Pos.Line, r.Analyzer, r.Reason)
	}
	malformed := 0
	for _, f := range findings {
		if f.Analyzer == "ckvet" {
			fmt.Println(f)
			malformed++
		}
	}
	fmt.Printf("%d allows (%d stale, %d malformed)\n", len(ledger), stale, malformed)
	if stale > 0 || malformed > 0 {
		return 1
	}
	return exitCode
}

func joinPath(dir, file string) string {
	if strings.HasPrefix(file, "/") {
		return file
	}
	return dir + string(os.PathSeparator) + file
}

// relPath trims the current working directory so SARIF locations and
// audit output stay repo-relative (artifact-friendly).
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rest, ok := strings.CutPrefix(name, wd+string(os.PathSeparator)); ok {
		return rest
	}
	return name
}

// ---------------------------------------------------------------------
// SARIF 2.1.0 output (the static-analysis interchange format GitHub
// code scanning and most SARIF viewers accept). Minimal but valid: one
// run, one result per diagnostic, ruleId = analyzer name.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func writeSARIF(w io.Writer, findings []finding) error {
	var rules []sarifRule
	for _, a := range lint.All {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: doc}})
	}
	results := []sarifResult{} // encode [] rather than null when clean
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: relPath(f.Pos.Filename)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "ckvet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// ---------------------------------------------------------------------
// Shared: parse, type-check, analyze one package.

// finding is one unsuppressed diagnostic with its resolved position.
type finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s: %s (ckvet/%s)", f.Pos, f.Message, f.Analyzer)
}

func checkPackage(importPath string, goFiles []string, compiler, goVersion string, lookup importer.Lookup) ([]finding, []analysis.AllowRecord, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}

	if compiler == "" {
		compiler = "gc"
	}
	arch := os.Getenv("GOARCH")
	if arch == "" {
		arch = runtime.GOARCH
	}
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, compiler, lookup),
		GoVersion: goVersion,
		Sizes:     types.SizesFor(compiler, arch),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}

	diags, allows, err := analysis.RunAnalyzersAudit(lint.All, fset, files, pkg, info)
	if err != nil {
		return nil, nil, err
	}
	var out []finding
	for _, d := range diags {
		out = append(out, finding{Pos: fset.Position(d.Pos), Analyzer: d.Analyzer, Message: d.Message})
	}
	return out, allows, nil
}
