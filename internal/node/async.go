package node

import (
	"errors"

	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
)

// The synchronizer from internal/sync threaded through the runtime: the
// retransmission timer of every remote Send adapts to a
// per-peer Jacobson RTT estimate, and a per-peer health FSM (healthy →
// degraded → suspect → excluded) lets the OnPeerLoss policy act on
// suspicion — an unresponsive peer — rather than waiting for a connection
// to die.
//
// The synchronizer changes when frames move, never what the stamps say:
// under every schedule the collected trace must equal the synchronous
// oracle's. That is also why none of the state here reaches the obs
// recorder — retransmission timing is wall-clock nondeterminism, and the
// exported event streams are contractually byte-identical across runs. The
// synchronizer surfaces through metrics and RunInfo only.

// RTTStats is RunInfo's per-peer view of the RTT estimator and the health
// monitor. P50NS/P99NS are quantile upper bounds from the peer's RTT
// histogram (zero with obs disabled); the rest comes from the estimator and
// monitor directly.
type RTTStats struct {
	SRTTNS     int64
	RTONS      int64
	P50NS      int64
	P99NS      int64
	Samples    int64
	Spurious   int64
	Suspicions int64
}

// initAsync builds the synchronizer state from its normalized config after
// the Node's sizes are known. Called from New for every node with peers,
// before any connection exists.
func (n *Node) initAsync(cfg tssync.Config) {
	// The synchronizer's jitter seed doubles as the per-node identity salt,
	// so two nodes of one run never share a jitter stream.
	cfg.Seed = cfg.Seed*1_000_003 + int64(n.cfg.Node)
	n.coord = tssync.NewCoordinator(cfg, n.nodes, n.cfg.Node)
	if r := n.cfg.Obs.Registry(); r != nil {
		n.peerRTT = make([]*obs.Histogram, n.nodes)
		n.peerHealth = make([]*obs.Gauge, n.nodes)
		for j := 0; j < n.nodes; j++ {
			if j == n.cfg.Node {
				continue
			}
			n.peerRTT[j] = r.Histogram(obs.PeerMetric(obs.MetricPeerRTTNS, j), obs.LatencyEdges)
			n.peerHealth[j] = r.Gauge(obs.PeerMetric(obs.MetricPeerHealth, j))
		}
	}
}

// noteAlive is the synchronizer's receive hook, called by the read loop for
// every frame a peer delivers and by register for its HELLO: the frame
// itself is liveness evidence, which heals the health FSM (suspect →
// healthy on a late ACK); the healed state is mirrored into the health
// gauge.
func (n *Node) noteAlive(peer int) {
	p := n.coord.Peer(peer)
	if p == nil {
		return
	}
	if st, changed := p.OnEvidence(); changed {
		n.setHealthGauge(peer, st)
	}
}

// noteTimeout is the synchronizer's timeout hook, called by a parked sender
// each time a retransmission interval expires unanswered. A transition into
// suspect arms the degradation policy.
func (n *Node) noteTimeout(peer int) {
	p := n.coord.Peer(peer)
	if p == nil {
		return
	}
	st, changed := p.OnTimeout()
	if !changed {
		return
	}
	n.setHealthGauge(peer, st)
	if st == tssync.Suspect {
		n.noteSuspect(peer)
	}
}

// errSuspect is the recovery cause when a peer turns suspect.
var errSuspect = errors.New("suspect with no liveness evidence")

// noteSuspect reacts to a peer turning suspect: count it, then grant the
// peer the reconnect window (recoverPeer) to produce liveness evidence.
// Suspicion alone never fails the run under any policy: on a busy host a
// healthy peer turns suspect and heals routinely. Abort stays fail-fast for
// what it names — a dead data connection fails the run at once through
// peerLost.
func (n *Node) noteSuspect(peer int) {
	n.suspicions.Add(1)
	n.ins.Suspicions.Add(1)
	n.spawnRecovery(peer, errSuspect)
}

// setHealthGauge mirrors a health state into the peer's /metrics gauge.
func (n *Node) setHealthGauge(peer int, st tssync.State) {
	if n.peerHealth == nil || peer < 0 || peer >= len(n.peerHealth) {
		return
	}
	n.peerHealth[peer].Set(int64(st))
}

// asyncInfo fills RunInfo's synchronizer fields at end of run. A node
// without peers runs no synchronizer and leaves them zero.
func (n *Node) asyncInfo(info *RunInfo) {
	if n.nodes == 1 {
		return
	}
	info.Spurious = n.spurious.Load()
	info.Suspicions = n.suspicions.Load()
	info.PeerRTT = make(map[int]RTTStats, n.nodes-1)
	info.PeerHealth = make(map[int]string, n.nodes-1)
	for j := 0; j < n.nodes; j++ {
		p := n.coord.Peer(j)
		if p == nil {
			continue
		}
		es := p.Estimator().Stats()
		hs := p.Monitor().Stats()
		st := RTTStats{
			SRTTNS:     es.SRTT.Nanoseconds(),
			RTONS:      es.RTO.Nanoseconds(),
			Samples:    es.Samples,
			Spurious:   es.Spurious,
			Suspicions: hs.Suspicions,
		}
		if n.peerRTT != nil && n.peerRTT[j] != nil {
			hsnap := n.peerRTT[j].Snapshot()
			st.P50NS = hsnap.Quantile(0.50)
			st.P99NS = hsnap.Quantile(0.99)
		}
		info.PeerRTT[j] = st
		info.PeerHealth[j] = hs.State.String()
		n.setHealthGauge(j, hs.State)
	}
}
