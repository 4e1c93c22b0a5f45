package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	tssync "syncstamp/internal/sync"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// ErrPeerLost is returned by Send/RecvFrom when the rendezvous partner's
// node has been excluded from the run (OnPeerLoss = PeerLossExclude and the
// reconnect window expired). Programs that opt into degraded operation treat
// it as "this partner is gone"; the surviving topology keeps stamping.
var ErrPeerLost = errors.New("node: peer lost")

// PeerLossPolicy selects what a node does when a data connection dies and
// cannot be re-established within the reconnect window.
type PeerLossPolicy int

const (
	// PeerLossAbort fails the run as soon as a data connection dies:
	// retransmission and dedup still mask individual lost frames, but a
	// broken connection is fatal. It is the policy of a nil Config.Recovery.
	// A suspect peer whose connection is still up gets ReconnectWindow to
	// heal, as under PeerLossWait.
	PeerLossAbort PeerLossPolicy = iota
	// PeerLossWait redials (or awaits a redial) for ReconnectWindow; only an
	// expired window fails the run. A crashed peer that restarts from its
	// journal inside the window resumes the session transparently.
	PeerLossWait
	// PeerLossExclude behaves like PeerLossWait until the window expires,
	// then removes the peer from the active run instead of failing: its
	// nodes' vector components freeze, rendezvous parked on it return
	// ErrPeerLost, and the surviving topology keeps stamping.
	PeerLossExclude
)

// String names the policy (the tsnode -on-peer-loss vocabulary).
func (p PeerLossPolicy) String() string {
	switch p {
	case PeerLossAbort:
		return "abort"
	case PeerLossWait:
		return "wait"
	case PeerLossExclude:
		return "exclude"
	default:
		return fmt.Sprintf("PeerLossPolicy(%d)", int(p))
	}
}

// ParsePeerLossPolicy parses the tsnode -on-peer-loss vocabulary.
func ParsePeerLossPolicy(s string) (PeerLossPolicy, error) {
	switch s {
	case "abort":
		return PeerLossAbort, nil
	case "wait":
		return PeerLossWait, nil
	case "exclude":
		return PeerLossExclude, nil
	default:
		return 0, fmt.Errorf("node: unknown peer-loss policy %q (want abort, wait, or exclude)", s)
	}
}

// RecoveryConfig tunes the loss-tolerant protocol every node with peers
// runs: sequence-numbered SYN/ACK retransmission paced by the internal/sync
// synchronizer, idempotent dedup on receive, peer reconnection with session
// resume, and (optionally) a write-ahead journal for crash recovery. Vectors
// travel as per-pair deltas on every connection: each connection has its
// own codec pair, and a connection that loses no frame while it is up keeps
// the two in lockstep, across retransmissions, duplicates, reconnects and
// journal restarts alike.
type RecoveryConfig struct {
	// OnPeerLoss selects the degradation policy for a connection that stays
	// dead, or a peer that stays suspect, past ReconnectWindow.
	OnPeerLoss PeerLossPolicy
	// ReconnectWindow bounds how long a lost peer may stay unreachable
	// before OnPeerLoss applies. Zero means the handshake timeout.
	ReconnectWindow time.Duration
	// Journal, when non-nil, is the open crash-recovery journal: every
	// committed rendezvous is appended (and fsynced) before its ACK leaves
	// the node, so a restarted node replays it with Restore and resumes.
	Journal *Journal
	// Async tunes the synchronizer (see async.go) that paces every remote
	// Send's retransmissions — a per-peer adaptive RTO from a Jacobson RTT
	// estimate, doubled with seeded jitter per unanswered attempt — and
	// derives each peer's health from its unanswered intervals: a peer
	// still suspect after ReconnectWindow meets OnPeerLoss without waiting
	// for a connection to die. Nil means the tssync defaults.
	Async *tssync.Config
}

// dedupEntry is the receiver-side dedup state for one remote sender
// process. Because Send blocks until its ACK, each sender has at most one
// rendezvous outstanding, so a single slot per sender is complete: enq is
// the highest sequence number accepted into a mailbox, and (ackSeq,
// ackFrom, stamp) caches the last committed merge so a retransmitted SYN
// whose ACK was lost is answered from the cache instead of merged twice.
// Each entry has its own lock, taken by the sender's node's read loop and
// by the receiving process: no other rendezvous contends for it.
type dedupEntry struct {
	mu      sync.Mutex
	enq     uint64
	ackSeq  uint64
	ackFrom int
	stamp   vector.V
}

// dedupCheck classifies an incoming SYN: deliver it, re-ACK it from the
// merge cache (duplicate whose ACK was lost), or silently drop it
// (duplicate still parked in a mailbox). Returns the frame to send back,
// if any, and whether to deliver.
func (n *Node) dedupCheck(f *wire.Frame) (reack *wire.Frame, deliver bool) {
	e := &n.dedup[f.From]
	e.mu.Lock()
	deliver = f.Seq > e.enq
	if deliver {
		e.enq = f.Seq
	} else if f.Seq == e.ackSeq && e.stamp != nil {
		// A clone: the re-ACK is sent from another goroutine, and
		// noteMerged overwrites the cached stamp in place.
		reack = &wire.Frame{Kind: wire.KindAck, From: e.ackFrom, To: f.From, Seq: e.ackSeq, Vec: e.stamp.Clone()}
	}
	e.mu.Unlock()
	if !deliver {
		n.noteDedup()
	}
	return reack, deliver
}

// noteMerged caches a committed merge for re-ACKing duplicates. The cache
// owns its vector and, once warm, is overwritten in place.
func (n *Node) noteMerged(from int, seq uint64, by int, stamp vector.V) {
	e := &n.dedup[from]
	e.mu.Lock()
	e.ackSeq = seq
	e.ackFrom = by
	if len(e.stamp) == len(stamp) {
		copy(e.stamp, stamp)
	} else {
		e.stamp = stamp.Clone()
	}
	if seq > e.enq {
		e.enq = seq
	}
	e.mu.Unlock()
}

// noteDedup records one suppressed duplicate frame.
func (n *Node) noteDedup() {
	n.deduped.Add(1)
	n.ins.DedupFrames.Add(1)
}

// sendToPeer writes one frame on the current data connection to a peer
// node; during a reconnect there is none.
func (n *Node) sendToPeer(node int, f *wire.Frame) error {
	n.mu.Lock()
	pc := n.conns[node]
	n.mu.Unlock()
	if pc == nil {
		return fmt.Errorf("node %d: no connection to node %d", n.cfg.Node, node)
	}
	return pc.send(f)
}

// errByeUndelivered is the recovery cause when a session must resume only
// to re-announce this node's lost BYE.
var errByeUndelivered = errors.New("bye undelivered")

// peerDone reports whether nothing further is owed between this node and
// peer j: the peer announced completion AND our own BYE reached it, or the
// peer was excluded. Caller holds n.mu.
func (n *Node) peerDone(j int) bool {
	return (n.byeSeen[j] && !n.byeFailed[j]) || n.excluded[j]
}

// noteByeFailed records that this node's BYE did not reach peer j (write
// error, or no connection at all) and, if no reconnect is already being
// driven, starts one: the peer's end-of-run barrier is parked on that BYE,
// and under the dial convention the peer may be waiting passively.
func (n *Node) noteByeFailed(j int) {
	n.mu.Lock()
	n.byeFailed[j] = true
	dead := n.conns[j] == nil
	n.mu.Unlock()
	if dead {
		n.spawnRecovery(j, errByeUndelivered)
	}
	// A live connection means the failure raced a reconnect (or the conn is
	// dying and its read loop is about to notice); either path re-announces.
}

// spawnRecovery starts recoverPeer for a peer unless one is already
// running, the peer is finished, or the node is stopping.
func (n *Node) spawnRecovery(peer int, cause error) {
	n.mu.Lock()
	skip := n.recovering[peer] || n.peerDone(peer)
	if !skip {
		n.recovering[peer] = true
	}
	n.mu.Unlock()
	if skip || n.stopped() {
		return
	}
	n.recoveryWG.Add(1)
	go n.recoverPeer(peer, cause)
}

// peerLost handles the death of a data connection: the connection is
// retired and, unless nothing is owed either way (peer's BYE seen and ours
// delivered), the peer was excluded, or the policy is abort, a recovery
// goroutine redials (or awaits the peer's redial) for ReconnectWindow.
func (n *Node) peerLost(pc *peerConn, cause error) {
	n.mu.Lock()
	lost := n.conns[pc.node] == pc
	var finished bool
	if lost {
		n.conns[pc.node] = nil
		n.retired = append(n.retired, pc)
		finished = n.peerDone(pc.node)
	}
	n.mu.Unlock()
	if !lost {
		// Already replaced by a reconnect; nothing was lost.
		return
	}
	_ = pc.c.Close()
	if finished || n.stopped() {
		return
	}
	// A live peer just vanished: snapshot the flight recorder now, while
	// the ring still holds the events leading up to the loss. (fail takes
	// its own dump; this covers losses recovery goes on to survive.)
	n.DumpFlight()
	if n.rec.OnPeerLoss == PeerLossAbort {
		n.fail(fmt.Errorf("node %d: connection to node %d: %w", n.cfg.Node, pc.node, cause))
		return
	}
	n.spawnRecovery(pc.node, cause)
}

// recoverPeer grants a lost or suspect peer the reconnect window, then
// applies the peer-loss policy. The window closes early once the peer is
// connected and not suspect, or once nothing is owed either way. While the
// connection is down the higher-numbered side redials with a fresh epoch,
// paced like TCPTransport's dial retries (mesh convention: higher dials
// lower); a redial ends with the window, or sooner at the handshake timeout.
func (n *Node) recoverPeer(peer int, cause error) {
	defer func() {
		n.mu.Lock()
		n.recovering[peer] = false
		n.mu.Unlock()
		n.recoveryWG.Done()
	}()
	window := n.rec.ReconnectWindow
	deadline := time.Now().Add(window)
	bo := tssync.NewBackoff(dialBackoffMin, dialBackoffMax, int64(n.cfg.Node*n.nodes+peer))
	health := n.peers[peer]
	for attempt := 0; ; attempt++ {
		n.mu.Lock()
		connected := n.conns[peer] != nil
		finished := n.peerDone(peer)
		n.mu.Unlock()
		if (connected && health.State() != tssync.Suspect) || finished || n.stopped() {
			return
		}
		if !time.Now().Before(deadline) {
			switch {
			case n.rec.OnPeerLoss == PeerLossExclude:
				n.excludePeer(peer)
			case connected:
				n.fail(fmt.Errorf("node %d: node %d suspect for %v with no liveness evidence", n.cfg.Node, peer, window))
			default:
				n.fail(fmt.Errorf("node %d: node %d unreachable for %v: %w", n.cfg.Node, peer, window, cause))
			}
			return
		}
		dialBy := time.Now().Add(min(n.cfg.HandshakeTimeout, time.Until(deadline)))
		if !connected && n.cfg.Node > peer && n.dialPeer(peer, n.nextEpoch(peer), dialBy) == nil {
			continue
		}
		timer := time.NewTimer(min(bo.Delay(attempt), time.Until(deadline)))
		select {
		case <-timer.C:
		case <-n.stop:
			timer.Stop()
			return
		}
	}
}

// nextEpoch allocates the HELLO epoch for a redial toward a peer.
func (n *Node) nextEpoch(peer int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epochs[peer]++
	return n.epochs[peer]
}

// excludePeer removes a node from the run, the one way any exclusion
// happens: it records the exclusion, which the peer's reported health and
// gauge read from then on, answers ErrPeerLost to the sends parked on the
// node, wakes every hosted process so a receive from the node re-checks,
// and releases the end-of-run barrier. The node's components freeze; every
// surviving clock keeps Fig. 5 on the ones it still advances.
// A repeated call finds no send parked on the node (registerWaiter refuses
// it), and its wake-ups only make receives re-check.
func (n *Node) excludePeer(peer int) {
	n.mu.Lock()
	n.excluded[peer] = true
	var parked []waiter
	for proc, w := range n.waiters {
		if w.seq != 0 && w.node == peer {
			parked = append(parked, w)
			n.waiters[proc].seq = 0 // taken, as the read loop takes an ACK's
		}
	}
	var wake []int
	for _, proc := range n.local {
		if !n.woken[proc] {
			n.woken[proc] = true
			wake = append(wake, proc)
		}
	}
	n.mu.Unlock()
	n.mirrorHealth(peer)
	n.notePeerEvent()
	for _, proc := range wake {
		// Never blocks: requests fill only the other processes' slots.
		select {
		case n.mailboxes[proc] <- inbound{from: anySender}:
		default:
		}
	}
	for _, w := range parked {
		if !post(n, w.reply, answer{seq: w.seq, err: ErrPeerLost}) { // as the read loop posts an ACK
			return
		}
	}
}

// takeWake consumes process proc's exclusion wake-up and reports whether
// the sender its receive waits for (anySender: none) is on an excluded node.
func (n *Node) takeWake(proc, from int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.woken[proc] = false
	return from != anySender && n.excluded[n.cfg.Placement[from]]
}

// isExcluded reports whether a peer node has been excluded.
func (n *Node) isExcluded(node int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return node >= 0 && node < len(n.excluded) && n.excluded[node]
}

// notePeerEvent wakes the end-of-run barrier.
func (n *Node) notePeerEvent() {
	select {
	case n.peerEvent <- struct{}{}:
	default:
	}
}

// excludedList snapshots the excluded peers, ascending.
func (n *Node) excludedList() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []int
	for j, x := range n.excluded {
		if x {
			out = append(out, j)
		}
	}
	return out
}

// awaitPeersDone is the end-of-run barrier: instead of tying completion to
// reader-goroutine lifetimes (readers die and are replaced across
// reconnects), it waits until every peer either announced completion with
// BYE or was excluded.
func (n *Node) awaitPeersDone() {
	for {
		n.mu.Lock()
		done := true
		for j := 0; j < n.nodes; j++ {
			if j == n.cfg.Node || n.peerDone(j) {
				continue
			}
			done = false
			break
		}
		n.mu.Unlock()
		if done {
			return
		}
		select {
		case <-n.peerEvent:
		case <-n.stop:
			return
		}
	}
}
