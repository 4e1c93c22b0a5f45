package csp

import (
	"syncstamp/internal/node"
	"syncstamp/internal/trace"
)

// ReplayPrograms builds one program per process that replays the process's
// projection of tr (node.ReplayPrograms, whose internal events are noted
// "replay-int-<proc>-<step>").
func ReplayPrograms(tr *trace.Trace) []func(*Process) error {
	replay := node.ReplayPrograms(tr)
	programs := make([]func(*Process) error, tr.N)
	for pid := range programs {
		prog := replay[pid]
		programs[pid] = func(p *Process) error { return prog(p.p) }
	}
	return programs
}

// SameProjections reports whether two traces restrict to identical
// per-process operation sequences (ignoring the global interleaving) —
// the equivalence class that defines a synchronous computation.
func SameProjections(a, b *trace.Trace) bool {
	if a.N != b.N {
		return false
	}
	proj := func(t *trace.Trace) [][]trace.Op {
		out := make([][]trace.Op, t.N)
		for _, op := range t.Ops {
			switch op.Kind {
			case trace.OpMessage:
				out[op.From] = append(out[op.From], op)
				out[op.To] = append(out[op.To], op)
			case trace.OpInternal:
				out[op.Proc] = append(out[op.Proc], op)
			}
		}
		return out
	}
	pa, pb := proj(a), proj(b)
	for p := range pa {
		if len(pa[p]) != len(pb[p]) {
			return false
		}
		for i := range pa[p] {
			if pa[p][i] != pb[p][i] {
				return false
			}
		}
	}
	return true
}
