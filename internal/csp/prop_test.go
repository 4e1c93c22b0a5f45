package csp_test

import (
	"fmt"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/csp"
)

// TestPropRuntimeMatchesSequential replays each generated trace's
// per-process projections through the CSP runtime (RecvFrom keeps the
// replay deadlock-free regardless of scheduling) and requires the stamps
// the live processes computed to equal a sequential core.StampTrace over
// the reconstructed interleaving — and to characterize ↦ on it exactly.
func TestPropRuntimeMatchesSequential(t *testing.T) {
	check.Run(t, check.Config{Runs: 12, MaxProcs: 6, MaxMessages: 30}, func(in *check.Input) error {
		tr := in.Trace
		res, err := csp.Run(in.Dec, csp.ReplayPrograms(tr), 10*time.Second)
		if err != nil {
			return err
		}
		if got, want := res.Trace.NumMessages(), tr.NumMessages(); got != want {
			return fmt.Errorf("runtime reconstructed %d messages, replayed %d", got, want)
		}
		return check.Verify(res, in.Dec)
	})
}
