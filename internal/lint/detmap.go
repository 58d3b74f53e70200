package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"vpp/internal/lint/analysis"
)

// Detmap flags sources of host-side nondeterminism inside the
// deterministic packages: iteration over maps (unless the loop body is
// provably iteration-order independent), unstable sort.Slice calls,
// wall-clock reads, the global math/rand generator, go statements, and
// multi-way selects. Any of these can change which coroutine runs at
// which virtual time between two hosts or two runs, silently breaking
// the bit-determinism the golden schedule traces pin.
var Detmap = &analysis.Analyzer{
	Name: "detmap",
	Doc: "reject map iteration, unstable sorts, wall clocks, global rand, " +
		"goroutines and multi-way selects in deterministic packages",
	Run: runDetmap,
}

// timeFuncs are the package-level time functions that read or depend on
// the host wall clock or host timers.
var timeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func runDetmap(pass *analysis.Pass) error {
	if !deterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			detmapFunc(pass, fd.Body)
		}
	}
	return nil
}

// detmapFunc checks one function body. Function literals recurse so
// that each range-over-map is judged against its own enclosing
// function (the scope within which a collected slice must be sorted).
func detmapFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			detmapFunc(pass, n.Body)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in deterministic package: goroutine scheduling is host-nondeterministic; use sim coroutines or annotate //ckvet:allow detmap <reason>")
		case *ast.SelectStmt:
			nonDefault := 0
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					nonDefault++
				}
			}
			if nonDefault >= 2 {
				pass.Reportf(n.Pos(), "multi-way select in deterministic package: case choice among ready channels is randomized; restructure or annotate //ckvet:allow detmap <reason>")
			}
		case *ast.CallExpr:
			detmapCall(pass, n)
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !mapRangeExempt(pass, n, body) {
					pass.Reportf(n.Pos(), "range over %s iterates in nondeterministic order; collect and sort the keys first (see sortedThreads in internal/ck/kernelobj.go) or annotate //ckvet:allow detmap <reason>", tv.Type)
				}
			}
		}
		return true
	})
}

// detmapCall flags wall-clock, global-rand and unstable-sort calls.
func detmapCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if timeFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads the host clock; simulated code must use virtual time (Exec.Now / Engine.Now) or annotate //ckvet:allow detmap <reason>", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(call.Pos(), "global math/rand (%s.%s) is shared process-wide state; use a private sim.NewRand stream", fn.Pkg().Path(), fn.Name())
	case "sort":
		if fn.Name() == "Slice" {
			pass.Reportf(call.Pos(), "sort.Slice is unstable: elements whose comparator is not total order nondeterministically; use sort.SliceStable or compare a unique key")
		}
	}
}

// mapRangeExempt reports whether a range-over-map is provably
// iteration-order independent. Two shapes qualify:
//
//   - a pure accumulation body: every statement is a commutative
//     update (counter increment, integer +=/|=/&=/^=, insertion into
//     another map keyed by the range key, delete keyed by the range
//     key, or continue);
//
//   - the collect-then-sort idiom: every statement appends to slices,
//     and each such slice is passed to a sort call somewhere in the
//     same enclosing function.
//
// Anything else — including genuinely order-independent reductions the
// analysis cannot prove, like taking a minimum — needs an explicit
// //ckvet:allow detmap annotation.
func mapRangeExempt(pass *analysis.Pass, rs *ast.RangeStmt, enclosing *ast.BlockStmt) bool {
	key, _ := rs.Key.(*ast.Ident)
	for _, stmt := range rs.Body.List {
		if commutativeStmt(pass, stmt, key) {
			continue
		}
		if target := appendTarget(pass, stmt); target != nil && sortedLater(pass, enclosing, target) {
			continue
		}
		return false
	}
	return true
}

// commutativeStmt reports whether stmt's effect is independent of the
// order it runs in relative to the other iterations.
func commutativeStmt(pass *analysis.Pass, stmt ast.Stmt, key *ast.Ident) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.ExprStmt:
		// delete(m, key): removals keyed by distinct range keys commute.
		call, ok := s.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "delete" {
			return false
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			return false
		}
		return key != nil && isIdent(call.Args[1], key)
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative only over exact arithmetic: integers, not floats.
			tv, ok := pass.TypesInfo.Types[s.Lhs[0]]
			if !ok {
				return false
			}
			b, ok := tv.Type.Underlying().(*types.Basic)
			return ok && b.Info()&types.IsInteger != 0
		case token.ASSIGN:
			// m2[key] = v: distinct range keys write distinct entries.
			ix, ok := s.Lhs[0].(*ast.IndexExpr)
			if !ok {
				return false
			}
			tv, ok := pass.TypesInfo.Types[ix.X]
			if !ok {
				return false
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return false
			}
			return key != nil && isIdent(ix.Index, key)
		}
	}
	return false
}

// appendTarget returns the object of s if stmt has the exact shape
// `s = append(s, ...)`, else nil.
func appendTarget(pass *analysis.Pass, stmt ast.Stmt) types.Object {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil
	}
	if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
		return nil
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[first] != pass.TypesInfo.Uses[lhs] {
		return nil
	}
	return pass.TypesInfo.Uses[lhs]
}

// sortedLater reports whether the enclosing function contains a sort
// call whose first argument is target.
func sortedLater(pass *analysis.Pass, enclosing *ast.BlockStmt, target types.Object) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || len(call.Args) == 0 {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		arg, ok := call.Args[0].(*ast.Ident)
		if ok && pass.TypesInfo.Uses[arg] == target {
			found = true
		}
		return !found
	})
	return found
}

func isIdent(e ast.Expr, want *ast.Ident) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == want.Name
}
