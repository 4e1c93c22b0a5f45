package sync

import (
	stdsync "sync"
)

// State is a peer's position in the health FSM. The order is meaningful:
// states only worsen under consecutive timeouts and only heal to Healthy
// (from anything short of Excluded) on liveness evidence.
type State int

const (
	// Healthy: the peer is answering within the estimator's expectations.
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
	// Excluded is terminal: the peer was removed from the run.
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

// Monitor is the per-peer health FSM, driven by consecutive timeouts and
// healed by evidence. Safe for concurrent use: timeouts arrive from parked
// senders, evidence from the connection's read loop.
type Monitor struct {
	mu           stdsync.Mutex
	state        State
	consecutive  int // timeouts since the last evidence
	degradeAfter int
	suspectAfter int
	suspicions   int64 // transitions into Suspect
	recoveries   int64 // Suspect/Degraded healed by evidence
}

// NewMonitor returns a Healthy monitor with the given consecutive-timeout
// thresholds (degradeAfter < suspectAfter; NewCoordinator passes
// DefaultDegradeAfter and DefaultSuspectAfter).
func NewMonitor(degradeAfter, suspectAfter int) *Monitor {
	return &Monitor{degradeAfter: degradeAfter, suspectAfter: suspectAfter}
}

// Timeout records one retransmission interval that expired unanswered and
// returns the state plus whether this timeout changed it.
func (m *Monitor) Timeout() (State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == Excluded {
		return m.state, false
	}
	m.consecutive++
	next := m.state
	switch {
	case m.consecutive >= m.suspectAfter:
		next = Suspect
	case m.consecutive >= m.degradeAfter:
		next = Degraded
	}
	changed := next != m.state
	if changed {
		m.state = next
		if next == Suspect {
			m.suspicions++
		}
	}
	return m.state, changed
}

// Evidence records proof the peer is alive — a frame received from it, a
// late ACK included — and heals Degraded/Suspect back to
// Healthy. Excluded is terminal; evidence cannot resurrect an excluded
// peer (its components are already frozen in every surviving clock).
func (m *Monitor) Evidence() (State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == Excluded {
		return m.state, false
	}
	m.consecutive = 0
	changed := m.state != Healthy
	if changed {
		m.state = Healthy
		m.recoveries++
	}
	return m.state, changed
}

// Exclude pins the FSM at Excluded.
func (m *Monitor) Exclude() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = Excluded
}

// State returns the current state.
func (m *Monitor) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// HealthStats is a point-in-time view of a monitor.
type HealthStats struct {
	State       State
	Consecutive int
	Suspicions  int64
	Recoveries  int64
}

// Stats snapshots the monitor.
func (m *Monitor) Stats() HealthStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return HealthStats{State: m.state, Consecutive: m.consecutive, Suspicions: m.suspicions, Recoveries: m.recoveries}
}
