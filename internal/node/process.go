package node

import (
	"fmt"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// Message is one received rendezvous: who sent it and the agreed timestamp.
// The wire protocol carries no application payload — timestamps are the
// subject of the system; payload transport is the application's concern.
type Message struct {
	From  int
	Stamp vector.V
}

// Process is the handle a program uses to communicate. Each Process is
// owned by exactly one goroutine; its methods must not be called
// concurrently.
type Process struct {
	id    int
	n     *Node
	clock *core.Clock
	log   []csp.Record
	// seq numbers this process's sends (local and remote alike), starting
	// at 1. It is what makes retransmission and receiver-side dedup sound:
	// Send blocks until its ACK, so at most one sequence number is ever
	// outstanding per sender. A journal Restore resumes the counter, so a
	// replayed send reuses its crashed incarnation's number and is answered
	// idempotently.
	seq uint64
	// stash holds rendezvous requests taken off the mailbox while waiting
	// for a specific sender in RecvFrom; their senders stay parked.
	stash []inbound
	// reply is the one slot every answer to this process's sends lands in,
	// from a local receiver's complete or from the read loop's ACK.
	reply chan answer
	// timer bounds each Send's wait; every Send re-arms it (armTimer), and
	// Run stops it once every program has returned.
	timer *time.Timer
}

// answer is one reply to a send: the agreed stamp, tagged with the
// sequence number of the send it answers, so that Send can drop a late
// answer to a send it abandoned.
type answer struct {
	seq   uint64
	stamp vector.V
}

// armTimer stops the process's timer, drains a tick it may have left in
// its channel, and re-arms it to fire after d. The drain is what keeps a
// reused timer sound under the pre-Go 1.23 timer semantics this module
// builds with (go.mod says go 1.22): a timer that fired after an earlier
// Send stopped reading it holds a stale tick that would end this Send's
// wait at once.
func (p *Process) armTimer(d time.Duration) {
	if p.timer == nil {
		p.timer = time.NewTimer(d)
		return
	}
	if !p.timer.Stop() {
		select {
		case <-p.timer.C:
		default:
		}
	}
	p.timer.Reset(d)
}

// nextSeq allocates the next send sequence number.
func (p *Process) nextSeq() uint64 {
	p.seq++
	return p.seq
}

// ID returns the process index.
func (p *Process) ID() int { return p.id }

// Clock returns a snapshot of the process's current vector.
func (p *Process) Clock() vector.V { return p.clock.Current() }

// Send performs a rendezvous with process q: it blocks until q has received
// the message, then returns the agreed timestamp. The rendezvous deadline
// bounds the wait; exceeding it aborts the run (a synchronous computation
// cannot outlive a lost partner).
func (p *Process) Send(q int) (vector.V, error) {
	if q == p.id {
		return nil, fmt.Errorf("node: process %d sending to itself", p.id)
	}
	if q < 0 || q >= len(p.n.cfg.Placement) {
		return nil, fmt.Errorf("node: destination %d out of range [0,%d)", q, len(p.n.cfg.Placement))
	}
	n := p.n
	target := n.cfg.Placement[q]
	remote := target != n.cfg.Node
	// With recovery on a remote send, the synchronizer paces retransmissions
	// of the self-contained SYN (dedup on the far side makes them
	// idempotent), and the exclusion broadcast wakes the wait if the
	// partner's node is removed from the run. One timer serves both the
	// retries and the deadline: it fires at the next retry or at the
	// rendezvous deadline, whichever comes first.
	wait := n.cfg.RendezvousTimeout
	var peer *tssync.Peer
	var exclC chan struct{}
	var sendWall, lastWall time.Time
	var attempts int
	if remote && n.rec != nil {
		peer = n.coord.Peer(target)
		exclC = n.exclusionCh()
		sendWall = time.Now()
		lastWall = sendWall
		wait = min(wait, peer.RetryIn(0))
	}
	p.armTimer(wait)

	pre := p.clock.Current()
	n.cfg.Obs.Rendezvous(n.cfg.Node, p.id, q, obs.PhaseSyn, pre)
	t0 := n.cfg.Obs.Now()
	seq := p.nextSeq()
	var syn *wire.Frame
	if !remote {
		select {
		case n.mailboxes[q] <- inbound{from: p.id, seq: seq, vec: pre, reply: p.reply}:
		case <-n.stop:
			return nil, ErrStopped
		case <-p.timer.C:
			err := fmt.Errorf("node: process %d -> %d: rendezvous deadline %v exceeded", p.id, q, n.cfg.RendezvousTimeout)
			n.fail(err)
			return nil, err
		}
		n.ins.SendBlockNS.Observe(n.cfg.Obs.Now() - t0)
	} else {
		n.registerWaiter(p.id, seq)
		syn = &wire.Frame{Kind: wire.KindSyn, From: p.id, To: q, Seq: seq, Vec: pre}
		if err := n.sendToPeer(target, syn); err != nil {
			if n.rec == nil {
				n.clearWaiter(p.id)
				if n.stopped() {
					return nil, ErrStopped
				}
				err = fmt.Errorf("node: process %d -> %d: %w", p.id, q, err)
				n.fail(err)
				return nil, err
			}
			// Recovery mode: the link may be down mid-reconnect; the
			// retransmissions below cover the lost first transmission.
		}
		n.ins.SendBlockNS.Observe(n.cfg.Obs.Now() - t0)
	}

	t1 := n.cfg.Obs.Now()
	for {
		select {
		case a := <-p.reply:
			if a.seq != seq {
				// The answer to an earlier send this process abandoned
				// (ErrPeerLost) arrived after it moved on.
				n.noteDropped()
				continue
			}
			stamp := a.stamp
			n.ins.SynAckNS.Observe(n.cfg.Obs.Now() - t1)
			if peer != nil {
				// Feed the estimator. Karn's rule and the Eifel-style spurious
				// check live in OnAck; an accepted sample is the full
				// first-transmission round trip.
				now := time.Now()
				sampled, spurious := peer.OnAck(now.Sub(sendWall), now.Sub(lastWall), attempts)
				if spurious {
					n.spurious.Add(1)
					n.ins.Spurious.Add(1)
				}
				if sampled && n.peerRTT != nil && n.peerRTT[target] != nil {
					n.peerRTT[target].Observe(now.Sub(sendWall).Nanoseconds())
				}
			}
			if err := p.clock.Adopt(stamp, q); err != nil {
				err = fmt.Errorf("node: process %d -> %d: %w", p.id, q, err)
				p.n.fail(err)
				return nil, err
			}
			if err := n.journalCommit(JournalRecord{Kind: journalSend, Proc: p.id, Peer: q, Seq: seq, Stamp: stamp}); err != nil {
				return nil, err
			}
			n.cfg.Obs.Rendezvous(n.cfg.Node, p.id, q, obs.PhaseAdopt, stamp)
			n.ins.Rendezvous.Add(1)
			n.ins.Proc(p.id).Add(1)
			if n.ins.CausalTicks != nil {
				n.ins.CausalTicks.Observe(obs.StampSum(stamp) - obs.StampSum(pre))
			}
			p.log = append(p.log, csp.Record{Kind: csp.RecordSend, Peer: q, Stamp: stamp})
			return stamp, nil
		case <-n.stop:
			if remote {
				n.clearWaiter(p.id)
			}
			return nil, ErrStopped
		case <-p.timer.C:
			if peer == nil || time.Since(sendWall) >= n.cfg.RendezvousTimeout {
				if remote {
					n.clearWaiter(p.id)
				}
				err := fmt.Errorf("node: process %d -> %d: rendezvous deadline %v exceeded", p.id, q, n.cfg.RendezvousTimeout)
				n.fail(err)
				return nil, err
			}
			if n.isExcluded(target) {
				n.clearWaiter(p.id)
				return nil, fmt.Errorf("node: process %d -> %d: %w", p.id, q, ErrPeerLost)
			}
			// Best effort: during a reconnect there is no connection to
			// write to; the next retry goes out on the restored session.
			_ = n.sendToPeer(target, syn)
			n.retransmits.Add(1)
			n.ins.Retransmits.Add(1)
			attempts++
			lastWall = time.Now()
			n.noteTimeout(target)
			retry := peer.RetryIn(attempts)
			n.ins.BackoffNS.Observe(int64(retry))
			// The channel was just drained, so Reset cannot leave a stale tick.
			p.timer.Reset(min(retry, n.cfg.RendezvousTimeout-lastWall.Sub(sendWall)))
		case <-exclC:
			if n.isExcluded(target) {
				n.clearWaiter(p.id)
				return nil, fmt.Errorf("node: process %d -> %d: %w", p.id, q, ErrPeerLost)
			}
			exclC = n.exclusionCh() // some other peer was excluded; re-arm
		}
	}
}

// Recv blocks for the next incoming rendezvous from any peer, completes it,
// and returns the message. Requests stashed by earlier RecvFrom calls are
// delivered first, in arrival order.
func (p *Process) Recv() (Message, error) {
	var in inbound
	if len(p.stash) > 0 {
		in = p.stash[0]
		copy(p.stash, p.stash[1:])
		p.stash = p.stash[:len(p.stash)-1]
	} else {
		t0 := p.n.cfg.Obs.Now()
		select {
		case in = <-p.n.mailboxes[p.id]:
		case <-p.n.stop:
			return Message{}, ErrStopped
		}
		p.n.ins.RecvBlockNS.Observe(p.n.cfg.Obs.Now() - t0)
	}
	return p.complete(in)
}

// RecvFrom blocks for the next rendezvous from the specific process from,
// leaving requests from other senders pending (their senders remain
// parked, exactly as with one rendezvous channel per process pair).
// Replaying the per-process projections of a synchronous computation with
// RecvFrom is deadlock-free; with the any-source Recv it need not be.
func (p *Process) RecvFrom(from int) (Message, error) {
	for i, in := range p.stash {
		if in.from == from {
			p.stash = append(p.stash[:i], p.stash[i+1:]...)
			return p.complete(in)
		}
	}
	// Under recovery, a wait on a specific remote sender must also wake if
	// that sender's node gets excluded — otherwise the receiver would park
	// until the rendezvous deadline for a partner that is never coming.
	var exclC chan struct{}
	if p.n.rec != nil && from >= 0 && from < len(p.n.cfg.Placement) && p.n.cfg.Placement[from] != p.n.cfg.Node {
		if p.n.isExcluded(p.n.cfg.Placement[from]) {
			return Message{}, fmt.Errorf("node: process %d recvfrom %d: %w", p.id, from, ErrPeerLost)
		}
		exclC = p.n.exclusionCh()
	}
	t0 := p.n.cfg.Obs.Now()
	for {
		var in inbound
		select {
		case in = <-p.n.mailboxes[p.id]:
		case <-p.n.stop:
			return Message{}, ErrStopped
		case <-exclC:
			if p.n.isExcluded(p.n.cfg.Placement[from]) {
				return Message{}, fmt.Errorf("node: process %d recvfrom %d: %w", p.id, from, ErrPeerLost)
			}
			exclC = p.n.exclusionCh()
			continue
		}
		if in.from == from {
			p.n.ins.RecvBlockNS.Observe(p.n.cfg.Obs.Now() - t0)
			return p.complete(in)
		}
		p.stash = append(p.stash, in)
	}
}

// complete performs the receiver's half of the rendezvous: the Figure 5
// merge yields the stamp, which goes back to the sender — over the reply
// channel for a local sender, on an ACK frame for a remote one.
func (p *Process) complete(in inbound) (Message, error) {
	stamp, err := p.clock.Merge(in.vec, in.from)
	if err != nil {
		err = fmt.Errorf("node: process %d receiving from %d: %w", p.id, in.from, err)
		p.n.fail(err)
		return Message{}, err
	}
	p.n.cfg.Obs.Rendezvous(p.n.cfg.Node, p.id, in.from, obs.PhaseMerge, stamp)
	// Write-ahead: the merge is journaled (and fsynced) before any ACK can
	// leave the node, so a crash after this point re-ACKs from the restored
	// dedup cache instead of merging twice.
	if err := p.n.journalCommit(JournalRecord{Kind: journalRecv, Proc: p.id, Peer: in.from, Seq: in.seq, Stamp: stamp}); err != nil {
		return Message{}, err
	}
	if in.reply != nil {
		// The sender is parked on its slot; the slot is full only while it
		// still holds a late answer the sender is about to drop.
		select {
		case in.reply <- answer{seq: in.seq, stamp: stamp}:
		case <-p.n.stop:
			return Message{}, ErrStopped
		}
	} else {
		if p.n.rec != nil {
			p.n.noteMerged(in.from, in.seq, p.id, stamp)
		}
		pc, err := p.n.connTo(p.n.cfg.Placement[in.from])
		if err == nil {
			err = pc.send(&wire.Frame{Kind: wire.KindAck, From: p.id, To: in.from, Seq: in.seq, Vec: stamp})
		}
		if err != nil {
			if p.n.stopped() {
				return Message{}, ErrStopped
			}
			if p.n.rec == nil {
				err = fmt.Errorf("node: process %d acking %d: %w", p.id, in.from, err)
				p.n.fail(err)
				return Message{}, err
			}
			// The ACK died with the connection; the sender's retransmission
			// will be answered from the dedup cache once the session resumes.
		}
	}
	p.n.cfg.Obs.Rendezvous(p.n.cfg.Node, p.id, in.from, obs.PhaseAck, stamp)
	p.n.ins.Rendezvous.Add(1)
	p.n.ins.Proc(p.id).Add(1)
	p.log = append(p.log, csp.Record{Kind: csp.RecordRecv, Peer: in.from, Stamp: stamp})
	return Message{From: in.from, Stamp: stamp}, nil
}

// Internal records an internal event carrying note (Section 5). Its full
// (prev, succ, c) stamp is resolved at reconstruction time, when the next
// message, if any, is known. Note travels the wire as a string.
func (p *Process) Internal(note string) {
	// Journal failures fail the run via journalCommit; the in-memory record
	// is still appended so the log stays consistent with the clock.
	_ = p.n.journalCommit(JournalRecord{Kind: journalInternal, Proc: p.id, Note: note})
	p.log = append(p.log, csp.Record{Kind: csp.RecordInternal, Note: note})
	p.n.ins.InternalEvents.Add(1)
	// Guarded so the clock snapshot (a clone) only happens when a recorder
	// is on.
	if p.n.cfg.Obs.Recording() {
		p.n.cfg.Obs.Internal(p.n.cfg.Node, p.id, p.clock.Current(), note)
	}
}
