package lint

import (
	"go/ast"
	"go/types"
)

// lockedPaths lists the packages whose mutex discipline lockcheck audits for
// Lock/Unlock pairing: csp and node host the concurrent rendezvous runtimes,
// monitor is documented as safe for concurrent readers, and obs's registry
// and recorder are shared by every process goroutine of a run. fault's
// injector serializes per-link state under the same discipline. load's
// workers rendezvous through per-client and per-server mutexes at driver
// scale, where an unpaired Lock stalls every subsequent request on that
// client or server. (Copying a lock by value is checked module-wide.)
var lockedPaths = []string{
	"syncstamp/internal/csp",
	"syncstamp/internal/monitor",
	"syncstamp/internal/node",
	"syncstamp/internal/obs",
	"syncstamp/internal/fault",
	"syncstamp/internal/load",
	"syncstamp/internal/sync",
}

// LockCheck enforces two mutex rules. Module-wide, a sync.Mutex/RWMutex (or
// a struct holding one by value) must never be passed or received by value —
// the copy starts unlocked and guards nothing, and under the rendezvous
// protocol a goroutine blocking on a copied lock deadlocks the exchange. In
// the concurrent packages (csp, monitor), every Lock()/RLock() must be
// released on all return paths: either a defer immediately follows, or the
// matching Unlock appears in the same block with no intervening return.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "no mutexes copied by value; Lock() paired with (deferred) Unlock() on every return path in csp, monitor, node, and obs",
	Run:  runLockCheck,
}

func runLockCheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(decl *ast.FuncDecl, ft *ast.FuncType, body *ast.BlockStmt) {
			checkLockCopies(pass, decl, ft)
		})
	}
	audited := false
	for _, p := range lockedPaths {
		if pathWithin(pass.Pkg.Path, p) {
			audited = true
			break
		}
	}
	if !audited {
		return
	}
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(_ *ast.FuncDecl, _ *ast.FuncType, body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				if blk, ok := n.(*ast.BlockStmt); ok {
					checkLockPairing(pass, blk)
				}
				return true
			})
		})
	}
}

// checkLockCopies flags by-value parameters and receivers whose type holds a
// lock.
func checkLockCopies(pass *Pass, decl *ast.FuncDecl, ft *ast.FuncType) {
	flag := func(field *ast.Field, what string) {
		t := pass.TypeOf(field.Type)
		if t == nil {
			return
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return
		}
		if containsLocker(t) {
			pass.Reportf(field.Pos(), "%s copies a sync mutex by value; use a pointer", what)
		}
	}
	if decl != nil && decl.Recv != nil {
		for _, field := range decl.Recv.List {
			flag(field, "value receiver")
		}
	}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			flag(field, "parameter")
		}
	}
}

// lockCall matches an ExprStmt of the form E.Lock / E.RLock / E.Unlock /
// E.RUnlock where E has a sync mutex type (directly or as an embedded
// field), returning the receiver's printed form.
func lockCall(pass *Pass, st ast.Stmt) (recv, method string, ok bool) {
	es, isExpr := st.(*ast.ExprStmt)
	if !isExpr {
		return "", "", false
	}
	return lockCallExpr(pass, es.X)
}

func lockCallExpr(pass *Pass, e ast.Expr) (recv, method string, ok bool) {
	call, isCall := unparen(e).(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := pass.ObjectOf(sel.Sel).(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// unlockFor maps a locking method to its release.
func unlockFor(method string) string {
	if method == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// checkLockPairing audits one block: each Lock/RLock statement must be
// followed immediately by the matching deferred unlock, or by an explicit
// unlock later in the same block with no return statement in between.
func checkLockPairing(pass *Pass, blk *ast.BlockStmt) {
	for i, st := range blk.List {
		recv, method, ok := lockCall(pass, st)
		if !ok || (method != "Lock" && method != "RLock") {
			continue
		}
		want := unlockFor(method)
		// Case 1: defer recv.Unlock() as the next statement.
		if i+1 < len(blk.List) {
			if def, isDefer := blk.List[i+1].(*ast.DeferStmt); isDefer {
				if r, m, ok := lockCallExpr(pass, def.Call); ok && r == recv && m == want {
					continue
				}
			}
		}
		// Case 2: an explicit unlock later in this block, with no return in
		// between (a return in between leaks the lock on that path).
		released := false
		escapes := false
		for _, later := range blk.List[i+1:] {
			if r, m, ok := lockCall(pass, later); ok && r == recv && m == want {
				released = true
				break
			}
			if stmtReturns(later) {
				escapes = true
				break
			}
		}
		switch {
		case released && !escapes:
			// Straight-line Lock ... Unlock: fine.
		case escapes:
			pass.Reportf(st.Pos(), "%s.%s() not released on a return path; defer %s.%s() immediately after locking", recv, method, recv, want)
		default:
			pass.Reportf(st.Pos(), "%s.%s() has no matching %s() in this block; defer the unlock", recv, method, want)
		}
	}
}

// stmtReturns reports whether st contains a return statement (at any depth
// outside nested function literals).
func stmtReturns(st ast.Stmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
			return false
		}
		return !found
	})
	return found
}
