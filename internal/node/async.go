package node

import (
	"errors"

	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
)

// The synchronizer from internal/sync threaded through the runtime: the
// retransmission timer of every remote Send adapts to a per-peer Jacobson
// RTT estimate, and each link's health (healthy → degraded → suspect,
// derived from its unanswered retransmission intervals) lets the OnPeerLoss
// policy act on suspicion — an unresponsive peer — rather than waiting for
// a connection to die. Exclusion is this node's record (Node.excluded): a
// peer in it reads excluded in RunInfo and in its health gauge, whatever
// its link's health says.
//
// The synchronizer changes when frames move, never what the stamps say:
// under every schedule the collected trace must equal the synchronous
// oracle's. That is also why none of the state here reaches the obs
// recorder — retransmission timing is wall-clock nondeterminism, and the
// exported event streams are contractually byte-identical across runs. The
// synchronizer surfaces through metrics and RunInfo only.

// RTTStats is RunInfo's per-peer view of the link's synchronizer record.
// P50NS/P99NS are quantile upper bounds from the peer's RTT histogram (zero
// with obs disabled); the rest comes from tssync.Peer.Stats.
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
	n.peers = tssync.NewPeers(cfg, n.nodes, n.cfg.Node)
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
// itself is liveness evidence, which heals the link (suspect → healthy on a
// late ACK). On a healthy link it is one atomic load.
func (n *Node) noteAlive(peer int) {
	if n.peers[peer].OnEvidence() {
		n.mirrorHealth(peer)
	}
}

// noteTimeout is the synchronizer's timeout hook, called by a parked sender
// each time a retransmission interval expires unanswered. A transition into
// suspect arms the degradation policy. A timeout toward an excluded peer
// counts nothing: its health is settled.
func (n *Node) noteTimeout(peer int) {
	n.mu.Lock()
	st, changed := tssync.Healthy, false
	if !n.excluded[peer] {
		st, changed = n.peers[peer].OnTimeout()
	}
	n.mu.Unlock()
	if !changed {
		return
	}
	n.mirrorHealth(peer)
	if st == tssync.Suspect {
		n.ins.Suspicions.Add(1)
		n.spawnRecovery(peer, errSuspect)
	}
}

// errSuspect is the recovery cause when a peer turns suspect. Suspicion
// alone never fails the run under any policy: on a busy host a healthy peer
// turns suspect and heals routinely, so the peer gets the reconnect window
// (recoverPeer) to produce liveness evidence. Abort stays fail-fast for
// what it names — a dead data connection fails the run at once through
// peerLost.
var errSuspect = errors.New("suspect with no liveness evidence")

// health returns a peer's state as RunInfo and /metrics report it: excluded
// from this node's table, else the link's own. Caller holds n.mu.
func (n *Node) health(peer int) tssync.State {
	if n.excluded[peer] {
		return tssync.Excluded
	}
	return n.peers[peer].State()
}

// mirrorHealth copies a peer's health into its /metrics gauge. It reads the
// state under n.mu, as excludePeer writes it, so the last writer always
// writes the current state and never overwrites an exclusion.
func (n *Node) mirrorHealth(peer int) {
	if n.peerHealth == nil {
		return
	}
	n.mu.Lock()
	n.peerHealth[peer].Set(int64(n.health(peer)))
	n.mu.Unlock()
}

// asyncInfo fills RunInfo's synchronizer fields at end of run. A node
// without peers runs no synchronizer and leaves them zero.
func (n *Node) asyncInfo(info *RunInfo) {
	if n.nodes == 1 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	info.PeerRTT = make(map[int]RTTStats, n.nodes-1)
	info.PeerHealth = make(map[int]string, n.nodes-1)
	for j, p := range n.peers {
		if p == nil {
			continue
		}
		s := p.Stats()
		st := RTTStats{
			SRTTNS:     s.SRTT.Nanoseconds(),
			RTONS:      s.RTO.Nanoseconds(),
			Samples:    s.Samples,
			Spurious:   s.Spurious,
			Suspicions: s.Suspicions,
		}
		if n.peerRTT != nil && n.peerRTT[j] != nil {
			hsnap := n.peerRTT[j].Snapshot()
			st.P50NS = hsnap.Quantile(0.50)
			st.P99NS = hsnap.Quantile(0.99)
		}
		info.Spurious += s.Spurious
		info.Suspicions += s.Suspicions
		info.PeerRTT[j] = st
		info.PeerHealth[j] = n.health(j).String()
	}
}
