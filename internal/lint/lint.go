// Package lint holds the ckvet analyzers: static checks that enforce
// the invariants the reproduction's results rest on and that the
// compiler cannot see.
//
//   - Virtual-time results must be bit-deterministic. The golden
//     schedule-trace hashes in internal/exp catch violations after the
//     fact on two workloads; detmap rejects the nondeterminism sources
//     themselves (map iteration order, unstable sorts, wall-clock
//     reads, global math/rand, goroutines, multi-way selects) in every
//     deterministic package, at analysis time.
//
//   - Every simulated action must charge cycles through the
//     internal/hw cost model, so the Table 2 numbers emerge from real
//     work. chargepath rejects exported hw/ck operations that are
//     handed an execution context and mutate simulated state without
//     charging on every non-crashing path, and cost constants that are
//     never charged at all.
//
//   - invariantcall rejects silently discarded error returns from
//     Cache Kernel object-cache operations: identifier faults are
//     ordinary events in the caching model and must be handled (or
//     discarded explicitly with `_ =`).
//
//   - The engine recycles executed event records through one free
//     list. poolpath rejects appends to it outside its annotated
//     growth point: stray growth could recycle a live record and
//     reintroduces steady-state allocation on the zero-allocation hot
//     path.
//
// Findings are suppressed line-by-line with
//
//	//ckvet:allow <analyzer> <reason>
//
// on the flagged line or the line above; a missing reason is itself a
// diagnostic. Run the suite with cmd/ckvet (standalone or as a
// `go vet -vettool`).
package lint

import (
	"go/types"
	"strings"

	"vpp/internal/lint/analysis"
)

// All is the ckvet analyzer suite.
var All = []*analysis.Analyzer{Detmap, Chargepath, Invariantcall, Poolpath}

// DeterministicPrefixes lists import-path prefixes whose packages run
// under the simulation's virtual clock and therefore must be
// bit-deterministic. Host-side entry points (cmd/..., examples/...)
// are deliberately outside it.
var DeterministicPrefixes = []string{"vpp/internal/"}

// DeterministicExclude lists packages under the prefixes that are
// host-side anyway: the lint tooling itself.
var DeterministicExclude = []string{"vpp/internal/lint"}

// ChargedPackages lists the packages whose exported operations must
// charge the cost model: the hardware layer and the Cache Kernel.
var ChargedPackages = map[string]bool{
	"vpp/internal/hw": true,
	"vpp/internal/ck": true,
}

// InvariantPackages lists the packages whose error-returning methods
// are kernel-object cache operations for invariantcall.
var InvariantPackages = map[string]bool{
	"vpp/internal/ck": true,
}

// deterministicPkg reports whether the import path is in detmap scope.
func deterministicPkg(path string) bool {
	for _, ex := range DeterministicExclude {
		if path == ex || strings.HasPrefix(path, ex+"/") {
			return false
		}
	}
	for _, p := range DeterministicPrefixes {
		if strings.HasPrefix(path, p) {
			return true
		}
	}
	return false
}

// namedDeclaredIn reports whether t (after unwrapping pointers) is a
// named type whose defining package has the given import path.
func namedDeclaredIn(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isExecType reports whether t is hw.Exec or *hw.Exec.
func isExecType(t types.Type) bool {
	return namedDeclaredIn(t, "vpp/internal/hw", "Exec")
}

// isCtxType reports whether t is sim.Ctx or *sim.Ctx.
func isCtxType(t types.Type) bool {
	return namedDeclaredIn(t, "vpp/internal/sim", "Ctx")
}
