package csp

import "syncstamp/internal/obs"

// LogsFromEvents rebuilds per-process rendezvous logs from an obs trace.
// Only the runtime-independent phases carry log-equivalent information —
// PhaseAdopt is the sender's completed send, PhaseMerge the receiver's
// completed receive, both stamped with the agreed v(m); PhaseInternal is an
// internal event — so the events of either runtime, read back from event
// files (node.ReadFlightDump), feed Reconstruct exactly like the runtime's
// own logs. This is how tsanalyze trace-report oracle-checks a trace:
// reconstruct the computation from the trace alone and compare the stamps
// it claims against the poset.
func LogsFromEvents(n int, events []obs.Event) [][]Record {
	evs := append([]obs.Event(nil), events...)
	obs.SortEvents(evs)
	logs := make([][]Record, n)
	for _, e := range evs {
		if e.Proc < 0 || e.Proc >= n {
			continue
		}
		switch e.Phase {
		case obs.PhaseAdopt:
			logs[e.Proc] = append(logs[e.Proc], Record{Kind: RecordSend, Peer: e.Peer, Stamp: e.Stamp.Clone()})
		case obs.PhaseMerge:
			logs[e.Proc] = append(logs[e.Proc], Record{Kind: RecordRecv, Peer: e.Peer, Stamp: e.Stamp.Clone()})
		case obs.PhaseInternal:
			logs[e.Proc] = append(logs[e.Proc], Record{Kind: RecordInternal, Note: e.Note})
		}
	}
	return logs
}
