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
// A node keeps one Peer per link (NewPeers), the one record of both:
//
//   - a Jacobson-style RTT estimate (EWMA smoothed RTT plus mean
//     deviation) that adapts the retransmission timeout to the link.
//     Karn's rule keeps ambiguous (retransmitted) exchanges out of the
//     estimate, and Eifel-style spurious-retransmit detection feeds the
//     estimate back down when a retransmission is proven unnecessary;
//
//   - a Backoff: capped exponential backoff with deterministic seeded
//     jitter, so retransmit (and dial) storms desynchronize without
//     wall-clock randomness — two runs with the same seed jitter
//     identically;
//
//   - the count of consecutive retransmission intervals that expired
//     unanswered. The link's health (healthy, degraded, suspect) is derived
//     from that count, and any liveness evidence resets it. Degradation
//     policies (node.OnPeerLoss) act on suspicion, not on hard connection
//     loss: a peer can be excluded while its TCP connection is still
//     nominally alive. Exclusion itself is the node's record, not this
//     package's.
//
// Everything here is wall-clock-free except the durations callers feed in:
// the package computes with time.Duration values but never reads a clock,
// which keeps it trivially testable and keeps the determinism contract of
// the trace pipeline out of its hands.
package sync

import (
	"fmt"
	stdsync "sync"
	"sync/atomic"
	"time"
)

// Defaults applied when Config leaves fields zero, and the health
// thresholds, which no Config field overrides.
const (
	DefaultRTTInit = 50 * time.Millisecond
	DefaultRTOMin  = 1 * time.Millisecond
	DefaultRTOMax  = 2 * time.Second
	// DefaultDegradeAfter and DefaultSuspectAfter are the consecutive-timeout
	// thresholds of a link's health: two unanswered retransmission intervals
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
	// RTOMin and RTOMax clamp the retransmission timeout the estimate
	// produces. Zero means the defaults.
	RTOMin time.Duration
	RTOMax time.Duration
	// Seed drives the deterministic backoff jitter. Each peer derives its
	// own stream from (Seed, peer), so jitter is independent per link and
	// replayable per run.
	Seed int64
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
	return c
}

// Validate rejects configurations the defaults cannot repair.
func (c Config) Validate() error {
	if c.RTTInit < 0 || c.RTOMin < 0 || c.RTOMax < 0 {
		return fmt.Errorf("sync: negative duration in config %+v", c)
	}
	return nil
}

// Peer is the synchronizer's record of one link. All methods are safe for
// concurrent use: several local processes may be mid-rendezvous with the
// same peer node at once, and the connection's read loop reports evidence
// meanwhile.
type Peer struct {
	// bo paces retransmissions; its [min, max] also clamps the RTO.
	bo *Backoff
	// misses counts consecutive retransmission intervals that expired
	// unanswered; the link's State is derived from it.
	misses atomic.Int64

	mu         stdsync.Mutex
	srtt       time.Duration
	rttvar     time.Duration
	primed     bool // the first real sample replaces the configured guess
	samples    int64
	spurious   int64
	suspicions int64 // intervals that crossed into Suspect
}

// NewPeers builds one node's synchronizer among `nodes` nodes: a Peer per
// other node, indexed by node, with a nil entry for self (a node has no
// link to itself).
func NewPeers(cfg Config, nodes, self int) []*Peer {
	cfg = cfg.withDefaults()
	peers := make([]*Peer, nodes)
	for j := range peers {
		if j == self {
			continue
		}
		// Until the first sample the guess acts as the smoothed RTT with a
		// variance of half itself (the TCP convention for a connection with
		// no samples yet).
		peers[j] = &Peer{
			bo:     NewBackoff(cfg.RTOMin, cfg.RTOMax, cfg.Seed*31+int64(j)),
			srtt:   cfg.RTTInit,
			rttvar: cfg.RTTInit / 2,
		}
	}
	return peers
}

// RetryIn returns the retransmission delay for the given attempt (0 = the
// initial wait for the first transmission's ACK). Attempt 0 waits exactly
// the current RTO, as RFC 6298 does: jittering it would retransmit before
// the estimate's own timeout. Later attempts double the RTO per attempt,
// cap it, and jitter it into [d/2, d).
func (p *Peer) RetryIn(attempt int) time.Duration {
	p.mu.Lock()
	rto := p.rto()
	p.mu.Unlock()
	if attempt == 0 {
		return rto
	}
	return p.bo.Jitter(scale(rto, attempt, p.bo.max))
}

// OnAck records the outcome of an acknowledged exchange. sinceFirst is the
// elapsed time since the first transmission, sinceLast since the most
// recent (re)transmission, retransmits how many retransmissions the
// exchange needed. It reports whether an RTT sample was accepted and
// whether the exchange was classified a spurious retransmit. A negative
// sample is ignored.
//
// Karn's rule: a retransmitted exchange is ambiguous — the ACK may answer
// any copy — so it normally contributes no sample. The Eifel-style escape:
// an ACK arriving within half the smoothed RTT of the last retransmission
// cannot plausibly answer that copy, so it answers an earlier one; the
// retransmission was spurious, the full first-transmission time is a valid
// sample, and feeding it in pulls an over-inflated estimate back down.
func (p *Peer) OnAck(sinceFirst, sinceLast time.Duration, retransmits int) (sampled, spurious bool) {
	if sinceFirst < 0 {
		return false, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if retransmits > 0 {
		if sinceLast >= p.srtt/2 {
			return false, false
		}
		spurious = true
		p.spurious++
	}
	p.observe(sinceFirst)
	return true, spurious
}

// OnTimeout records one retransmission interval that expired with no ACK.
// It returns the link's state and whether this timeout changed it.
func (p *Peer) OnTimeout() (State, bool) {
	m := p.misses.Add(1)
	if m == DefaultSuspectAfter {
		p.mu.Lock()
		p.suspicions++
		p.mu.Unlock()
	}
	return stateOf(m), m == DefaultDegradeAfter || m == DefaultSuspectAfter
}

// OnEvidence records liveness evidence — any frame received from the peer,
// a late ACK included — and reports whether it healed a degraded or
// suspect link back to healthy. On a link with no unanswered interval it
// is one atomic load.
func (p *Peer) OnEvidence() bool {
	if p.misses.Load() == 0 {
		return false
	}
	return stateOf(p.misses.Swap(0)) != Healthy
}

// State returns the link's current health.
func (p *Peer) State() State { return stateOf(p.misses.Load()) }

// Stats is a point-in-time view of a Peer.
type Stats struct {
	SRTT, RTTVar, RTO             time.Duration
	Samples, Spurious, Suspicions int64
}

// Stats snapshots the peer.
func (p *Peer) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		SRTT: p.srtt, RTTVar: p.rttvar, RTO: p.rto(),
		Samples: p.samples, Spurious: p.spurious, Suspicions: p.suspicions,
	}
}

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
