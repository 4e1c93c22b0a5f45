package sync

// State is a link's health. The order is meaningful: a link only worsens
// under consecutive timeouts and heals straight to Healthy on liveness
// evidence. A Peer derives Healthy, Degraded or Suspect from its count of
// unanswered intervals and never returns Excluded: that state names the
// node runtime's own record of a peer it removed from the run.
type State int

const (
	// Healthy: the peer is answering within the estimate's expectations.
	Healthy State = iota
	// Degraded: DefaultDegradeAfter consecutive retransmission intervals
	// expired unanswered. The rendezvous keeps retrying; the state is a
	// visible early warning, not a behavior change.
	Degraded
	// Suspect: DefaultSuspectAfter consecutive intervals expired. The
	// degradation policy (node.OnPeerLoss) now has jurisdiction: a peer that
	// stays suspect for the reconnect window is excluded or fails the run,
	// connection liveness notwithstanding.
	Suspect
	// Excluded: the peer was removed from the run (terminal).
	Excluded
)

// String names the state (RunInfo and /metrics vocabulary).
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Suspect:
		return "suspect"
	case Excluded:
		return "excluded"
	default:
		return "unknown"
	}
}

// stateOf derives a link's health from its count of consecutive unanswered
// retransmission intervals.
func stateOf(misses int64) State {
	switch {
	case misses >= DefaultSuspectAfter:
		return Suspect
	case misses >= DefaultDegradeAfter:
		return Degraded
	default:
		return Healthy
	}
}
