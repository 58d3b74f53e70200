package lint

import (
	"go/ast"
	"go/types"

	"vpp/internal/lint/analysis"
)

// Poolpath enforces the pooled-buffer discipline of the engine's
// zero-allocation hot path. Executed event records are recycled through
// the engine's free list, Engine.evFree: freeEvent refills it and
// newEvent drains it. Growing it anywhere else breaks the bargain twice
// over:
//
//   - a record appended outside freeEvent may still be referenced by a
//     pending event, so newEvent would hand out a live record and the
//     schedule would replay stale state;
//
//   - an unaccounted growth point reintroduces steady-state allocation
//     on the path the pool exists to keep allocation-free, invisibly
//     regressing the allocs/op budget CI enforces.
//
// The sanctioned growth point therefore carries a
// //ckvet:allow poolpath annotation naming the point that drains it;
// poolpath flags any other append to the pooled field. The check is
// scoped to vpp/internal/sim — the only package that can name the
// unexported field.
var Poolpath = &analysis.Analyzer{
	Name: "poolpath",
	Doc: "reject appends to the engine's pooled event free list outside " +
		"its annotated growth site",
	Run: runPoolpath,
}

func runPoolpath(pass *analysis.Pass) error {
	if pass.Pkg.Path() != "vpp/internal/sim" {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "append" || len(call.Args) == 0 {
				return true
			}
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			// The first append argument is what grows; assigning the
			// result elsewhere still aliases the pooled backing array.
			sel, ok := call.Args[0].(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "evFree" {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[sel.X]; !ok || !namedDeclaredIn(tv.Type, "vpp/internal/sim", "Engine") {
				return true
			}
			pass.Reportf(call.Pos(), "append to pooled Engine.evFree outside its sanctioned growth point: a recycled event record must be unreferenced, and stray growth reintroduces allocation on the hot path; annotate //ckvet:allow poolpath <point that drains this>")
			return true
		})
	}
	return nil
}
