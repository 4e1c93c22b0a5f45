package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPaths lists the packages whose outputs must be byte-stable
// across runs: stamping and decomposition feed golden files and the
// SYNCSTAMP_CHECK_SEED replay of the property harness, offline stamping and
// shrinking must reproduce counterexamples verbatim, and vis renderings are
// diffed against recorded figures. Go randomizes map iteration order, so a
// bare `for range m` in these packages is a latent replay-nondeterminism
// bug. The wire codec's frame bytes and the node runtime's rendezvous logs
// feed the same golden and replay machinery, so both are held to the same
// rule, as is internal/obs, whose JSONL and Chrome exports are contractually
// byte-identical across runs, and internal/fault, whose whole contract is
// byte-identical fault schedules under a fixed seed. internal/load promises
// identical logs for identical seeds at workers=1 (a seeded load run is
// only comparable with another if it is), so it is held to the same rule.
var deterministicPaths = []string{
	"syncstamp/internal/core",
	"syncstamp/internal/decomp",
	"syncstamp/internal/offline",
	"syncstamp/internal/check",
	"syncstamp/internal/vis",
	"syncstamp/internal/wire",
	"syncstamp/internal/node",
	"syncstamp/internal/obs",
	"syncstamp/internal/fault",
	"syncstamp/internal/load",
	"syncstamp/internal/sync",
}

// MapIter flags map iteration in deterministic paths unless the loop merely
// collects keys for later sorting.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc:  "no map iteration in deterministic paths (core, decomp, offline, check, vis, wire, node, obs, load) unless keys are collected and sorted",
	Run:  runMapIter,
}

func runMapIter(pass *Pass) {
	applies := false
	for _, p := range deterministicPaths {
		if pathWithin(pass.Pkg.Path, p) {
			applies = true
			break
		}
	}
	if !applies {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(loop.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if isKeyCollectionLoop(pass, loop) {
				return true
			}
			pass.Reportf(loop.Pos(), "map iteration order is randomized; collect keys, sort, then iterate (deterministic path)")
			return true
		})
	}
}

// isKeyCollectionLoop recognizes the one sanctioned map-range shape: a body
// that only appends the range key to a slice, to be sorted before use.
//
//	for k := range m { keys = append(keys, k) }
func isKeyCollectionLoop(pass *Pass, loop *ast.RangeStmt) bool {
	if len(loop.Body.List) != 1 {
		return false
	}
	asg, ok := loop.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.ObjectOf(fun).(*types.Builtin); !isBuiltin {
		return false
	}
	// The appended value must be the range key itself (the order-insensitive
	// part); anything touching the map's values may depend on visit order.
	keyID, ok := loop.Key.(*ast.Ident)
	if !ok {
		return false
	}
	argID, ok := unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := pass.ObjectOf(keyID)
	return keyObj != nil && pass.ObjectOf(argID) == keyObj
}
