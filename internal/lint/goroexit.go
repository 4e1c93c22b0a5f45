package lint

import (
	"go/ast"
	"go/types"
)

// goroPaths are the packages whose goroutines must be joinable: node hosts
// the runtime goroutines of a run (readers, accept loops, program
// goroutines, recovery drivers) and csp the goroutine that drives a
// one-node run from Start to Wait; a leaked one outlives Run/Wait with a
// live reference to connection or clock state — the class of bug a kill -9
// soak cannot see because the process dies before the leak matters. load's
// workers and the collector-tree leaves hold spill journals and pipe ends,
// so an unjoined one keeps file handles alive past Finish.
var goroPaths = []string{
	"syncstamp/internal/node",
	"syncstamp/internal/csp",
	"syncstamp/internal/load",
	"syncstamp/internal/sync",
}

// GoroExit enforces goroutine joinability in the runtime packages: every
// goroutine launched with a go statement must be visibly joinable from its
// spawn site — the spawned body (or a function it statically calls) must
// either signal a sync.WaitGroup (Done) or signal completion over a channel
// (close or send on a non-local channel). Node.Close and System.Wait are
// the join points of the runtime; a goroutine neither tracked by a
// WaitGroup nor signalling a channel is invisible to both.
var GoroExit = &Analyzer{
	Name:      "goroexit",
	Doc:       "goroutines launched in node and csp are joinable: the spawned body signals a WaitGroup or a completion channel",
	RunModule: runGoroExit,
}

func runGoroExit(mp *ModulePass) {
	// Phase 1: which module functions signal completion, directly?
	signals := make(map[*types.Func]bool)
	for _, fi := range mp.Graph.Funcs() {
		if fi.Decl.Body == nil {
			continue
		}
		if bodySignalsCompletion(fi.Pkg, fi.Decl.Body) {
			signals[fi.Obj] = true
		}
	}
	// Phase 2: propagate through the call graph — a goroutine whose body
	// calls a helper that does the WaitGroup.Done (or closes the done
	// channel) is joinable through that helper.
	signals = PropagateBool(mp.Graph, signals)

	// Phase 3: audit every go statement in the scoped packages.
	for _, pkg := range mp.Pkgs {
		if !goroAudited(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if goStmtJoinable(mp, pkg, g, signals) {
					return true
				}
				mp.Reportf(g.Pos(), "goroutine is not joinable: its body neither signals a sync.WaitGroup nor closes/sends on a completion channel (reachable via static calls); leaked goroutines outlive Close/Wait with live runtime state")
				return true
			})
		}
	}
}

func goroAudited(pkgPath string) bool {
	for _, p := range goroPaths {
		if pathWithin(pkgPath, p) {
			return true
		}
	}
	return false
}

// goStmtJoinable decides one go statement: a function-literal body is
// inspected directly (plus its static callees); a named callee is looked up
// in the propagated signal set.
func goStmtJoinable(mp *ModulePass, pkg *Package, g *ast.GoStmt, signals map[*types.Func]bool) bool {
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if bodySignalsCompletion(pkg, lit.Body) {
			return true
		}
		// The literal may delegate the signalling to a helper it calls.
		joinable := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || joinable {
				return !joinable
			}
			if callee := staticCallee(pkg, call); callee != nil && signals[callee] {
				joinable = true
			}
			return true
		})
		return joinable
	}
	callee := staticCallee(pkg, g.Call)
	return callee != nil && signals[callee]
}

// bodySignalsCompletion reports whether the body visibly signals that the
// goroutine is done: a sync.WaitGroup Done call, a close() of a non-local
// channel, or a send on a non-local channel. Nested function literals
// count (the signal is usually inside a defer).
func bodySignalsCompletion(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch nn := n.(type) {
		case *ast.CallExpr:
			// wg.Done()
			if sel, ok := unparen(nn.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					found = true
					return false
				}
			}
			// close(ch) on a shared (non-local) channel
			if id, ok := unparen(nn.Fun).(*ast.Ident); ok && id.Name == "close" && len(nn.Args) == 1 {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && sharedChannel(pkg, nn.Args[0]) {
					found = true
					return false
				}
			}
		case *ast.SendStmt:
			if sharedChannel(pkg, nn.Chan) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sharedChannel reports whether e denotes a channel that outlives the
// goroutine body: a struct field, a package-level variable, or a captured
// variable — anything but a channel created and dropped locally would do,
// and distinguishing captured locals from body-locals statically is not
// worth the precision, so any identifier or selector of channel type
// counts.
func sharedChannel(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	switch unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return true
	}
	return false
}
