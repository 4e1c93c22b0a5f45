// Package sync is the synchronizer of the node runtime's loss-tolerant
// mode: the machinery that lets the Figure 5 rendezvous run over links that
// are lossy, jittery, and never synchronous, while the collected trace stays
// byte-identical to the synchronous oracle's. It is the runtime's only
// rendezvous retransmission engine.
//
// The synchronizer follows Awerbuch's α synchronizer (Ghaffari–Trygub is
// the modern treatment), which rests on "safe" acknowledgments: a process
// is safe in a round once every message it sent in that round has been
// acknowledged. The rendezvous protocol already acknowledges every message
// individually (the ACK of the SYN/ACK exchange), so what remains is
// pacing: when to retransmit an unacknowledged SYN, and when silence means
// the peer is gone.
//
// Three mechanisms live here, combined per peer by a Coordinator:
//
//   - Estimator: a Jacobson-style RTT estimator (EWMA smoothed RTT plus
//     mean deviation) that adapts the retransmission timeout to the link.
//     Karn's rule keeps ambiguous (retransmitted) exchanges out of the
//     estimate, and Eifel-style spurious-retransmit detection feeds the
//     estimate back down when a retransmission is proven unnecessary.
//
//   - Backoff: capped exponential backoff with deterministic seeded jitter,
//     so retransmit (and dial) storms desynchronize without wall-clock
//     randomness — two runs with the same seed jitter identically.
//
//   - Monitor: the per-peer health FSM healthy → degraded → suspect →
//     excluded, driven by consecutive timeouts and healed by any liveness
//     evidence. Degradation policies (node.OnPeerLoss) act on suspicion,
//     not on hard connection loss: a peer can be excluded while its TCP
//     connection is still nominally alive.
//
// Everything here is wall-clock-free except the durations callers feed in:
// the package computes with time.Duration values but never reads a clock,
// which keeps it trivially testable and keeps the determinism contract of
// the trace pipeline out of its hands.
package sync

import (
	"fmt"
	"time"
)

// Defaults applied when Config leaves fields zero.
const (
	DefaultRTTInit = 50 * time.Millisecond
	DefaultRTOMin  = 1 * time.Millisecond
	DefaultRTOMax  = 2 * time.Second
	// DefaultDegradeAfter and DefaultSuspectAfter are the consecutive-timeout
	// thresholds of the health FSM: two unanswered retransmission intervals
	// mark a peer degraded, five mark it suspect.
	DefaultDegradeAfter = 2
	DefaultSuspectAfter = 5
)

// Config tunes the synchronizer. The zero value is usable: every field has
// a documented default.
type Config struct {
	// RTTInit seeds each peer's smoothed RTT before the first sample. Zero
	// means DefaultRTTInit.
	RTTInit time.Duration
	// RTOMin and RTOMax clamp the retransmission timeout the estimator
	// produces. Zero means the defaults.
	RTOMin time.Duration
	RTOMax time.Duration
	// Seed drives the deterministic backoff jitter. Each peer derives its
	// own stream from (Seed, peer), so jitter is independent per link and
	// replayable per run.
	Seed int64
	// DegradeAfter and SuspectAfter are the consecutive-timeout thresholds
	// of the health FSM. Zero means the defaults.
	DegradeAfter int
	SuspectAfter int
}

// withDefaults returns cfg with zero fields filled in.
func (c Config) withDefaults() Config {
	if c.RTTInit <= 0 {
		c.RTTInit = DefaultRTTInit
	}
	if c.RTOMin <= 0 {
		c.RTOMin = DefaultRTOMin
	}
	if c.RTOMax < c.RTOMin {
		c.RTOMax = DefaultRTOMax
	}
	if c.RTOMax < c.RTOMin {
		c.RTOMax = c.RTOMin
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = DefaultDegradeAfter
	}
	if c.SuspectAfter <= c.DegradeAfter {
		c.SuspectAfter = c.DegradeAfter + DefaultSuspectAfter - DefaultDegradeAfter
	}
	return c
}

// Validate rejects configurations the defaults cannot repair.
func (c Config) Validate() error {
	if c.RTTInit < 0 || c.RTOMin < 0 || c.RTOMax < 0 {
		return fmt.Errorf("sync: negative duration in config %+v", c)
	}
	if c.DegradeAfter < 0 || c.SuspectAfter < 0 {
		return fmt.Errorf("sync: negative health threshold in config %+v", c)
	}
	return nil
}

// Coordinator is one node's synchronizer state: a Peer per other node,
// created eagerly so access is lock-free.
type Coordinator struct {
	cfg   Config
	peers []*Peer
}

// NewCoordinator builds the synchronizer for a node among `nodes` nodes.
// The self entry exists but is never used (a node has no link to itself).
func NewCoordinator(cfg Config, nodes, self int) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{cfg: cfg, peers: make([]*Peer, nodes)}
	for j := range c.peers {
		if j == self {
			continue
		}
		c.peers[j] = &Peer{
			est: NewEstimator(cfg.RTTInit, cfg.RTOMin, cfg.RTOMax),
			bo:  NewBackoff(cfg.RTOMin, cfg.RTOMax, cfg.Seed*31+int64(j)),
			mon: NewMonitor(cfg.DegradeAfter, cfg.SuspectAfter),
		}
	}
	return c
}

// Config returns the normalized configuration.
func (c *Coordinator) Config() Config { return c.cfg }

// Peer returns the synchronizer state for peer node j (nil for self or out
// of range, which no caller should ever ask for).
func (c *Coordinator) Peer(j int) *Peer {
	if j < 0 || j >= len(c.peers) {
		return nil
	}
	return c.peers[j]
}

// Peer combines the three per-link mechanisms. All methods are safe for
// concurrent use: several local processes may be mid-rendezvous with the
// same peer node at once.
type Peer struct {
	est *Estimator
	bo  *Backoff
	mon *Monitor
}

// RetryIn returns the retransmission delay for the given attempt (0 = the
// initial wait for the first transmission's ACK). Attempt 0 waits exactly
// the estimator's current RTO, as RFC 6298 does: jittering it would
// retransmit before the estimator's own timeout. Later attempts double the
// RTO per attempt, cap it, and jitter it into [d/2, d).
func (p *Peer) RetryIn(attempt int) time.Duration {
	if attempt == 0 {
		return p.est.RTO()
	}
	return p.bo.Jitter(scale(p.est.RTO(), attempt, p.bo.max))
}

// OnAck records the outcome of an acknowledged exchange. sinceFirst is the
// elapsed time since the first transmission, sinceLast since the most
// recent (re)transmission, retransmits how many retransmissions the
// exchange needed. It reports whether an RTT sample was accepted and
// whether the exchange was classified a spurious retransmit.
//
// Karn's rule: a retransmitted exchange is ambiguous — the ACK may answer
// any copy — so it normally contributes no sample. The Eifel-style escape:
// an ACK arriving within half the smoothed RTT of the last retransmission
// cannot plausibly answer that copy, so it answers an earlier one; the
// retransmission was spurious, the full first-transmission time is a valid
// sample, and feeding it in pulls an over-inflated estimate back down.
func (p *Peer) OnAck(sinceFirst, sinceLast time.Duration, retransmits int) (sampled, spurious bool) {
	if retransmits == 0 {
		p.est.Observe(sinceFirst)
		return true, false
	}
	if sinceLast < p.est.SRTT()/2 {
		p.est.Observe(sinceFirst)
		p.est.noteSpurious()
		return true, true
	}
	return false, false
}

// OnTimeout records one expired retransmission interval with no ACK and
// advances the health FSM. It returns the (possibly new) state and whether
// this timeout changed it.
func (p *Peer) OnTimeout() (State, bool) { return p.mon.Timeout() }

// OnEvidence records liveness evidence — any frame received from the peer —
// and heals the FSM (suspect or degraded → healthy). It returns the state
// and whether the evidence changed it.
func (p *Peer) OnEvidence() (State, bool) { return p.mon.Evidence() }

// Exclude pins the FSM at Excluded (terminal).
func (p *Peer) Exclude() { p.mon.Exclude() }

// State returns the current health state.
func (p *Peer) State() State { return p.mon.State() }

// Estimator exposes the peer's RTT estimator (stats surfaces read it).
func (p *Peer) Estimator() *Estimator { return p.est }

// Monitor exposes the peer's health monitor.
func (p *Peer) Monitor() *Monitor { return p.mon }

// scale doubles d attempt times, saturating at cap.
func scale(d time.Duration, attempt int, cap time.Duration) time.Duration {
	for i := 0; i < attempt; i++ {
		if d >= cap/2 {
			return cap
		}
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}
