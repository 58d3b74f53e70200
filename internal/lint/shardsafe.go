package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"vpp/internal/lint/analysis"
)

// Shardsafe enforces the sharded engine's ownership discipline: every
// clock, coroutine, event, execution context and descriptor cache is
// owned by exactly one engine shard (internal/sim Cluster), and the
// only sanctioned way to affect another shard is a cross-shard message
// (Engine.ScheduleCrossAt), delivered at an epoch barrier. The checks
// are a static over-approximation of that rule:
//
//   - package-level variables must not hold shard-owned state: a
//     process-wide root has no owning shard, so any shard can reach it;
//
//   - shard-owned packages must not use raw host synchronization
//     (sync, sync/atomic, channels): host-side synchronization hides
//     cross-shard communication from the epoch/outbox machinery
//     (internal/sim itself implements that machinery and is exempt);
//
//   - scheduling primitives must not be invoked on an engine reached
//     through the machine topology (x.Machine.MPMs[i].Shard,
//     Cluster.Engine(i)): such an engine may belong to another shard,
//     whose heap is not the caller's to mutate — ScheduleCrossAt is the
//     sanctioned path;
//
//   - a closure shipped cross-shard must not touch engine-heap objects
//     (engines, coroutines, clocks) other than its destination: it runs
//     on the destination shard, where those objects are foreign;
//
//   - fault hooks and chaos plans must be co-sharded with their charge
//     target: a hook installed on one kernel that draws from another
//     anchor's shard, or a crash event scheduled on one object's shard
//     that touches a different object, charges the wrong timeline.
//
// The analysis is type-level and intentionally conservative in the
// other direction too: engines laundered through plain local variables
// are assumed co-sharded (no data-flow tracking). The cksan runtime
// sanitizer (-tags cksan) catches what this over-approximation admits.
var Shardsafe = &analysis.Analyzer{
	Name: "shardsafe",
	Doc: "reject shard-owned state escaping to package level, raw host " +
		"synchronization, and cross-shard mutation that bypasses the epoch outbox",
	Run: runShardsafe,
}

// shardOwnedRoots are the named types that anchor shard ownership:
// everything reachable from them hangs off exactly one engine shard.
// sim.Cluster and hw.Machine deliberately are not here — they span
// shards by construction.
var shardOwnedRoots = [][2]string{
	{"vpp/internal/sim", "Engine"},
	{"vpp/internal/sim", "Coro"},
	{"vpp/internal/sim", "Clock"},
	{"vpp/internal/sim", "Ctx"},
	{"vpp/internal/hw", "MPM"},
	{"vpp/internal/hw", "CPU"},
	{"vpp/internal/hw", "Exec"},
	{"vpp/internal/ck", "Kernel"},
}

// schedulingMethods are the Engine mutations that touch the receiver
// shard's heap; calling one on a foreign shard's engine is the race the
// epoch outbox exists to prevent.
var schedulingMethods = map[string]bool{
	"ScheduleAt": true, "ScheduleAfter": true, "UnparkOn": true, "NewCoro": true,
}

// engineReadMethods are Engine/Coro/Clock methods safe to call from any
// shard between or within epochs: pure reads of monotone or immutable
// state.
var engineReadMethods = map[string]bool{
	"Now": true, "Name": true, "Shard": true, "Steps": true,
	"Done": true, "Runnable": true, "Clock": true,
}

// hookFields are the fault-injection hook slots (internal/chaos); the
// engine an installed hook draws on must be its anchor's own shard.
var hookFields = map[string]bool{
	"SignalFault": true, "WritebackFault": true, "WalkFault": true, "TxFault": true,
}

func runShardsafe(pass *analysis.Pass) error {
	if !deterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	// internal/sim implements the ownership machinery itself: its raw
	// channels and host synchronization are the engine, not an escape.
	rawSync := pass.Pkg.Path() != "vpp/internal/sim"
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		if rawSync {
			shardsafeImports(pass, f)
		}
		shardsafeGlobals(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if rawSync {
					pass.Reportf(n.Pos(), "raw channel send in shard-owned code: cross-shard effects must ride the epoch outbox (Engine.ScheduleCrossAt) or annotate //ckvet:allow shardsafe <reason>")
				}
			case *ast.UnaryExpr:
				if rawSync && n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "raw channel receive in shard-owned code: cross-shard effects must ride the epoch outbox (Engine.ScheduleCrossAt) or annotate //ckvet:allow shardsafe <reason>")
				}
			case *ast.CallExpr:
				if rawSync {
					shardsafeChanCall(pass, n)
				}
				shardsafeCall(pass, n)
			case *ast.AssignStmt:
				shardsafeAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// shardsafeImports flags raw host-synchronization imports. The import
// line is flagged once (rather than every use) so a single annotated
// reason documents the package's policy for its intentionally shared
// structures.
func shardsafeImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "sync" || path == "sync/atomic" {
			pass.Reportf(imp.Pos(), "import of %s in shard-owned code: host synchronization hides cross-shard communication from the epoch machinery; use ScheduleCrossAt, or annotate //ckvet:allow shardsafe <reason> for intentionally shared state", path)
		}
	}
}

// shardsafeGlobals flags package-level variables whose type can reach
// shard-owned state.
func shardsafeGlobals(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil || name.Name == "_" {
					continue
				}
				if owned, what := shardOwnedReach(obj.Type()); owned {
					pass.Reportf(name.Pos(), "package-level variable %s can reach shard-owned %s: shard state must hang off its own MPM/engine, not a process-wide root; annotate //ckvet:allow shardsafe <reason> if read-only after construction", name.Name, what)
				}
			}
		}
	}
}

// shardOwnedReach reports whether t can reach a shard-owned root type
// through fields, pointers, slices, arrays, maps or channels (function
// and interface types are opaque), and names the root it found.
func shardOwnedReach(t types.Type) (bool, string) {
	return ownedReach(t, make(map[types.Type]bool))
}

func ownedReach(t types.Type, seen map[types.Type]bool) (bool, string) {
	if seen[t] {
		return false, ""
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		for _, r := range shardOwnedRoots {
			if namedDeclaredIn(u, r[0], r[1]) {
				return true, r[0][len("vpp/internal/"):] + "." + r[1]
			}
		}
		return ownedReach(u.Underlying(), seen)
	case *types.Pointer:
		return ownedReach(u.Elem(), seen)
	case *types.Slice:
		return ownedReach(u.Elem(), seen)
	case *types.Array:
		return ownedReach(u.Elem(), seen)
	case *types.Chan:
		return ownedReach(u.Elem(), seen)
	case *types.Map:
		if ok, what := ownedReach(u.Key(), seen); ok {
			return true, what
		}
		return ownedReach(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if ok, what := ownedReach(u.Field(i).Type(), seen); ok {
				return true, what
			}
		}
	}
	return false, ""
}

// shardsafeChanCall flags make(chan) and close(ch).
func shardsafeChanCall(pass *analysis.Pass, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	isChan := false
	if _, c := tv.Type.Underlying().(*types.Chan); c {
		isChan = true
	}
	switch id.Name {
	case "make":
		// make's first argument is the type expression itself.
		if isChan {
			pass.Reportf(call.Pos(), "raw channel creation in shard-owned code: cross-shard effects must ride the epoch outbox (Engine.ScheduleCrossAt) or annotate //ckvet:allow shardsafe <reason>")
		}
	case "close":
		if isChan {
			pass.Reportf(call.Pos(), "raw channel close in shard-owned code: cross-shard effects must ride the epoch outbox (Engine.ScheduleCrossAt) or annotate //ckvet:allow shardsafe <reason>")
		}
	}
}

// shardsafeCall checks scheduling calls: foreign-topology receivers,
// cross-shard closure escapes, and crash-plan co-location.
func shardsafeCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	recvIsEngine := typeIs(pass, sel.X, "vpp/internal/sim", "Engine")
	recvIsCPU := typeIs(pass, sel.X, "vpp/internal/hw", "CPU")

	// (a) Scheduling on an engine (or dispatching on a CPU) reached
	// through the machine topology: the reached shard may not be ours.
	if (recvIsEngine && schedulingMethods[name]) || (recvIsCPU && name == "Dispatch") {
		if via := topologyCrossing(pass, sel.X); via != "" {
			pass.Reportf(call.Pos(), "%s on an engine reached through the machine topology (%s): another MPM's shard is not the caller's to mutate; deliver through Engine.ScheduleCrossAt (epoch outbox) or annotate //ckvet:allow shardsafe <reason>", name, via)
		}
	}

	// (b) A closure shipped cross-shard runs on the destination; any
	// engine-heap object it touches other than the destination itself is
	// foreign there.
	if recvIsEngine && name == "ScheduleCrossAt" && len(call.Args) == 3 {
		if fl, ok := call.Args[2].(*ast.FuncLit); ok {
			shardsafeCrossClosure(pass, call.Args[0], fl)
		}
	}

	// (d) A fault event scheduled on one object's shard must not touch a
	// different kernel or execution: the two are only co-sharded by
	// accident of the shard map.
	if recvIsEngine && name == "ScheduleAt" && len(call.Args) == 2 {
		if fl, ok := call.Args[1].(*ast.FuncLit); ok {
			shardsafeCrashPlan(pass, sel.X, fl)
		}
	}
}

// typeIs reports whether the expression's static type is the named type
// (or a pointer to it).
func typeIs(pass *analysis.Pass, e ast.Expr, pkgPath, name string) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && namedDeclaredIn(tv.Type, pkgPath, name)
}

// topologyCrossing reports how (if at all) the expression reaches its
// value through the machine topology: a .Machine back-pointer, an index
// into a []*hw.MPM slice, or Cluster.Engine(i). An engine obtained that
// way may belong to any shard.
func topologyCrossing(pass *analysis.Pass, e ast.Expr) string {
	via := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if via != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "Machine" && typeIs(pass, n, "vpp/internal/hw", "Machine") {
				via = "a .Machine back-pointer"
				return false
			}
		case *ast.IndexExpr:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if sl, isSlice := tv.Type.Underlying().(*types.Slice); isSlice && namedDeclaredIn(sl.Elem(), "vpp/internal/hw", "MPM") {
					via = "an index into Machine.MPMs"
					return false
				}
			}
		case *ast.CallExpr:
			if s, ok := n.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Engine" && typeIs(pass, s.X, "vpp/internal/sim", "Cluster") {
				via = "Cluster.Engine"
				return false
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return via
}

// shardsafeCrossClosure flags method calls inside a cross-shard closure
// whose receiver is an engine-heap object (Engine, Coro, Clock) other
// than the message's destination.
func shardsafeCrossClosure(pass *analysis.Pass, dst ast.Expr, fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if engineReadMethods[sel.Sel.Name] {
			return true
		}
		heap := ""
		switch {
		case typeIs(pass, sel.X, "vpp/internal/sim", "Engine"):
			heap = "engine"
		case typeIs(pass, sel.X, "vpp/internal/sim", "Coro"):
			heap = "coroutine"
		case typeIs(pass, sel.X, "vpp/internal/sim", "Clock"):
			heap = "clock"
		default:
			return true
		}
		if exprEqual(pass, sel.X, dst) {
			return true // the destination's own heap: the closure runs there
		}
		pass.Reportf(call.Pos(), "cross-shard closure calls %s on a captured %s: the closure runs on the destination shard, where that %s is foreign engine-heap state; restructure the message or annotate //ckvet:allow shardsafe <reason>", sel.Sel.Name, heap, heap)
		return true
	})
}

// shardsafeCrashPlan checks a fault event scheduled on an anchored
// shard (<anchor>.MPM.Shard.ScheduleAt): the closure must not mutate a
// kernel or execution rooted at a different object than the anchor.
func shardsafeCrashPlan(pass *analysis.Pass, recv ast.Expr, fl *ast.FuncLit) {
	anchor := shardAnchor(pass, recv)
	if anchor == nil {
		return
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || engineReadMethods[sel.Sel.Name] {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj == anchor {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if !namedDeclaredIn(obj.Type(), "vpp/internal/ck", "Kernel") && !namedDeclaredIn(obj.Type(), "vpp/internal/hw", "Exec") {
			return true
		}
		pass.Reportf(call.Pos(), "fault scheduled on %s's shard calls %s.%s: %s may live on another shard; schedule on the touched object's own shard (or co-locate them with a ShardMap) or annotate //ckvet:allow shardsafe <reason>", anchor.Name(), id.Name, sel.Sel.Name, id.Name)
		return true
	})
}

// shardAnchor resolves the owning object of a receiver written
// <anchor>.MPM.Shard or <anchor>.Shard, where the anchor is a kernel,
// execution context, MPM or device.
func shardAnchor(pass *analysis.Pass, recv ast.Expr) types.Object {
	sel, ok := recv.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Shard" {
		return nil
	}
	base := sel.X
	if inner, ok := base.(*ast.SelectorExpr); ok && inner.Sel.Name == "MPM" {
		base = inner.X
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	return obj
}

// shardsafeAssign checks hook installations: an assignment to a fault
// hook field must not hand the hook another anchor's shard stream.
func shardsafeAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs, ok := as.Lhs[0].(*ast.SelectorExpr)
	if !ok || !hookFields[lhs.Sel.Name] {
		return
	}
	lroot := rootIdent(pass, lhs.X)
	if lroot == nil {
		return
	}
	// Scan the hook expression for engines anchored at a different
	// object than the hook's owner.
	ast.Inspect(as.Rhs[0], func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || !typeIs(pass, sel, "vpp/internal/sim", "Engine") {
			return true
		}
		aroot := shardAnchor(pass, sel)
		if aroot == nil || aroot == lroot {
			return true
		}
		pass.Reportf(sel.Pos(), "hook %s.%s draws on %s's shard: a fault hook must charge and draw on the shard of the object it is installed on; anchor it at %s or annotate //ckvet:allow shardsafe <reason>", lroot.Name(), lhs.Sel.Name, aroot.Name(), lroot.Name())
		return false
	})
}

// rootIdent walks selector/index/star chains to the base identifier's
// object, or nil when the base is not a plain identifier.
func rootIdent(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if _, isVar := obj.(*types.Var); isVar {
				return obj
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// exprEqual reports structural equality of two ident/selector/index
// chains (the shapes receivers take); anything else compares unequal.
func exprEqual(pass *analysis.Pass, a, b ast.Expr) bool {
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ox, oy := pass.TypesInfo.Uses[x], pass.TypesInfo.Uses[y]
		return ox != nil && ox == oy
	case *ast.SelectorExpr:
		y, ok := b.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && exprEqual(pass, x.X, y.X)
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && exprEqual(pass, x.X, y.X) && exprEqual(pass, x.Index, y.Index)
	case *ast.ParenExpr:
		return exprEqual(pass, x.X, b)
	}
	if y, ok := b.(*ast.ParenExpr); ok {
		return exprEqual(pass, a, y.X)
	}
	return false
}
