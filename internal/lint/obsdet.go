package lint

import (
	"go/ast"
)

// obsDetPaths lists the packages whose exports are contractually byte-stable
// across runs of the same computation: internal/obs's Chrome trace files and
// the flight order event files are written in must never depend on when the
// run happened, only on its causal structure. A direct wall-clock read anywhere in the package is a latent
// determinism bug — time must flow through the obs.Clock seam, whose single
// sanctioned wall implementation carries the one justified suppression.
var obsDetPaths = []string{
	"syncstamp/internal/obs",
	"syncstamp/internal/fault",
}

// ObsDet forbids direct wall-clock reads in the observability package.
var ObsDet = &Analyzer{
	Name: "obsdet",
	Doc:  "no direct wall-clock reads (time.Now/Since/Until) in internal/obs or internal/fault; take time through obs.Clock so exports and fault schedules stay byte-stable",
	Run:  runObsDet,
}

func runObsDet(pass *Pass) {
	applies := false
	for _, p := range obsDetPaths {
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
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(call.Pos(), "wall-clock read time.%s in a deterministic export path; route time through obs.Clock", fn.Name())
			}
			return true
		})
	}
}
