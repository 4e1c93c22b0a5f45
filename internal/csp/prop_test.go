package csp_test

import (
	"fmt"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/csp"
	"syncstamp/internal/trace"
)

// TestPropRuntimeMatchesSequential replays each generated trace's
// per-process projections through the CSP runtime (RecvFrom keeps the
// replay deadlock-free regardless of scheduling) and requires the stamps
// the live processes computed to equal a sequential core.StampTrace over
// the reconstructed interleaving — and to characterize ↦ on it exactly.
func TestPropRuntimeMatchesSequential(t *testing.T) {
	check.Run(t, check.Config{Runs: 12, MaxProcs: 6, MaxMessages: 30}, func(in *check.Input) error {
		tr := in.Trace
		programs := make([]func(*csp.Process) error, tr.N)
		proj := tr.ProcOps()
		for proc := 0; proc < tr.N; proc++ {
			mine := proj[proc]
			me := proc
			programs[proc] = func(p *csp.Process) error {
				for _, k := range mine {
					op := tr.Ops[k]
					switch {
					case op.Kind == trace.OpInternal:
						p.Internal(k)
					case op.From == me:
						if _, err := p.Send(op.To, k); err != nil {
							return err
						}
					default:
						if _, err := p.RecvFrom(op.From); err != nil {
							return err
						}
					}
				}
				return nil
			}
		}
		res, err := csp.Run(in.Dec, programs, 10*time.Second)
		if err != nil {
			return err
		}
		if got, want := res.Trace.NumMessages(), tr.NumMessages(); got != want {
			return fmt.Errorf("runtime reconstructed %d messages, replayed %d", got, want)
		}
		return check.Verify(res, in.Dec)
	})
}
