package node

import (
	"errors"
	"fmt"
	"math"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// Message is one received rendezvous: who sent it, the payload a sender on
// this node passed to SendPayload, and the agreed timestamp. The wire
// protocol carries no application payload — timestamps are the subject of
// the system — so a message from another node has a nil Payload.
type Message struct {
	From    int
	Payload any
	Stamp   vector.V
}

// Process is the handle a program uses to communicate. Each Process is
// owned by exactly one goroutine; its methods must not be called
// concurrently.
type Process struct {
	id    int
	n     *Node
	clock *core.Clock
	log   recordLog
	// pre holds the pre-merge vector of the process's send in flight, the
	// one a SYN or a local request carries. It is reused by every send:
	// one send per process is outstanding; a local receiver reads it
	// before the answer that unparks the sender; retransmissions re-encode
	// it while the sender is still parked. A local send that ends with an
	// error has stopped the node, and a send after Stop returns before it
	// writes the buffer; a remote one's SYN was encoded when written.
	pre vector.V
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
	// and a parked Send waits on it alone: a local receiver's complete and
	// the read loop's ACK post the stamp, excludePeer ErrPeerLost, Stop
	// ErrStopped, and the timer its expiries.
	reply chan answer
	// timer posts an expiry into reply (expire) at a Send's next retry or
	// its deadline. Made by the first Send that has a deadline, re-armed by
	// every later one, and stopped by Run once every program has returned.
	timer *time.Timer
	// prog is the process's program (nil: immediately done) and err what it
	// returned, set under the node's mu.
	prog func(*Process) error
	err  error
}

// answer is one reply to a send: the agreed stamp, tagged with the
// sequence number of the send it answers, so that Send can drop a late
// answer to a send it abandoned. An answer with an error ends the send
// without a stamp: excludePeer answers ErrPeerLost to every send parked on
// the excluded node. Stop's ErrStopped and the timer's errExpired carry no
// sequence number: Send reads them against the node's stop state and its
// own due time.
type answer struct {
	seq   uint64
	stamp vector.V
	err   error
}

// logChunk is how many records one chunk of a process's log holds: 512
// records of 56 bytes stay under Go's 32 KB small-object limit.
const logChunk = 512

// recordLog is a process's rendezvous log. Past its first logChunk
// records it grows one fixed chunk at a time, so a record is one write
// into memory the process already owns: one slice regrown by append
// copies the whole log at every growth, about 1.25× for a long slice, and
// 1M messages allocated 599 MB of log for 112 MB of records. Run joins the
// chunks once into RunInfo.Logs.
type recordLog struct {
	full [][]core.Record // filled chunks, oldest first
	cur  []core.Record   // the chunk being filled; grows by append to logChunk
}

// add appends one record.
func (l *recordLog) add(r core.Record) {
	if len(l.cur) >= logChunk {
		l.full = append(l.full, l.cur)
		l.cur = make([]core.Record, 0, logChunk)
	}
	l.cur = append(l.cur, r)
}

// join returns the whole log as one slice: the chunk itself for a log
// that never filled one, else one copy of every chunk, each released as
// it is copied.
func (l *recordLog) join() []core.Record {
	if len(l.full) == 0 {
		return l.cur
	}
	total := len(l.cur)
	for _, c := range l.full {
		total += len(c)
	}
	out := make([]core.Record, 0, total)
	for i, c := range l.full {
		out = append(out, c...)
		l.full[i] = nil
	}
	return append(out, l.cur...)
}

// errExpired marks the timer's answer: the send's next retry or its
// deadline may be due.
var errExpired = errors.New("node: rendezvous timer expired")

// arm sets the process's timer to post an expiry after d and returns when
// that is due. now is read before the timer is set, so no expiry of this
// arming arrives before the due time.
func (p *Process) arm(now time.Time, d time.Duration) time.Time {
	if p.timer == nil {
		p.timer = time.AfterFunc(d, p.expire)
	} else {
		p.timer.Reset(d)
	}
	return now.Add(d)
}

// expire is the timer's function. It never blocks: an expiry that finds the
// slot full is lost, and Send, when it drops what filled the slot, checks
// its due time itself. An expiry of an earlier arming, which can land
// during a later send, ends nothing before that send is due.
func (p *Process) expire() {
	select {
	case p.reply <- answer{err: errExpired}:
	default:
	}
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
func (p *Process) Send(q int) (vector.V, error) { return p.SendPayload(q, nil) }

// SendPayload is Send with a payload for the receiver's Message. Only a
// process on this node can receive one: the wire carries stamps alone, so
// a non-nil payload to a process on another node is refused.
func (p *Process) SendPayload(q int, payload any) (vector.V, error) {
	if q == p.id {
		return nil, fmt.Errorf("node: process %d sending to itself", p.id)
	}
	if q < 0 || q >= len(p.n.cfg.Placement) {
		return nil, fmt.Errorf("node: destination %d out of range [0,%d)", q, len(p.n.cfg.Placement))
	}
	n := p.n
	target := n.cfg.Placement[q]
	remote := target != n.cfg.Node
	if remote && payload != nil {
		return nil, fmt.Errorf("node: process %d -> %d: a payload cannot travel to node %d", p.id, q, target)
	}
	if n.stopped() {
		return nil, ErrStopped // Stop's answer may have gone to an earlier send or found the slot full
	}
	// On a remote send, the synchronizer paces retransmissions of the SYN
	// (dedup on the far side makes them idempotent). One timer serves both
	// the retries and the deadline: it posts an expiry into the reply slot at
	// the next retry or at the rendezvous deadline, whichever comes first.
	// Exclusion and Stop answer into the slot too, so the wait is one receive.
	wait := n.cfg.RendezvousTimeout
	var peer *tssync.Peer
	var attempts int
	if remote {
		peer = n.peers[target]
		wait = min(wait, peer.RetryIn(0))
	}
	var sendWall, due time.Time // zero due: a wait that never expires arms no timer
	if remote || wait != math.MaxInt64 {
		sendWall = time.Now()
	}
	if wait != math.MaxInt64 {
		due = p.arm(sendWall, wait)
	}
	lastWall := sendWall

	p.pre = p.clock.AppendCurrent(p.pre[:0])
	pre := p.pre
	n.cfg.Obs.Rendezvous(n.cfg.Node, p.id, q, obs.PhaseSyn, pre)
	t0 := n.cfg.Obs.Now()
	seq := p.nextSeq()
	var syn *wire.Frame
	if !remote {
		if !post(n, n.mailboxes[q], inbound{from: p.id, seq: seq, vec: pre, payload: payload, reply: p.reply}) {
			return nil, ErrStopped
		}
		n.ins.SendBlockNS.Observe(n.cfg.Obs.Now() - t0)
	} else {
		if !n.registerWaiter(p.id, target, p.reply, seq) {
			return nil, fmt.Errorf("node: process %d -> %d: %w", p.id, q, ErrPeerLost)
		}
		syn = &wire.Frame{Kind: wire.KindSyn, From: p.id, To: q, Seq: seq, Vec: pre}
		// Best effort: the link may be down mid-reconnect, and the
		// retransmissions below cover a lost first transmission. A dead
		// connection under PeerLossAbort fails the run from its read loop.
		_ = n.sendToPeer(target, syn)
		n.ins.SendBlockNS.Observe(n.cfg.Obs.Now() - t0)
	}

	t1 := n.cfg.Obs.Now()
	var a answer
	for {
		if a = <-p.reply; a.seq == seq {
			break
		}
		if a.err == nil {
			// The answer to an earlier send this process abandoned
			// (ErrPeerLost) arrived after it moved on.
			n.noteDropped()
		}
		// Stop's answer, an expiry, or a dropped stale answer, which may
		// have filled the slot when Stop or the timer posted: check both.
		if n.stopped() {
			if remote {
				n.clearWaiter(p.id)
			}
			return nil, ErrStopped
		}
		if due.IsZero() || time.Now().Before(due) {
			continue
		}
		if !remote || time.Since(sendWall) >= n.cfg.RendezvousTimeout {
			if remote {
				n.clearWaiter(p.id)
			}
			err := fmt.Errorf("node: process %d -> %d: rendezvous deadline %v exceeded", p.id, q, n.cfg.RendezvousTimeout)
			n.fail(err)
			return nil, err
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
		due = p.arm(lastWall, min(retry, n.cfg.RendezvousTimeout-lastWall.Sub(sendWall)))
	}
	if a.err != nil {
		return nil, fmt.Errorf("node: process %d -> %d: %w", p.id, q, a.err)
	}
	stamp := a.stamp
	n.ins.SynAckNS.Observe(n.cfg.Obs.Now() - t1)
	if remote {
		// Feed the estimate. Karn's rule and the Eifel-style spurious
		// check live in OnAck, which counts spurious retransmits per
		// link; an accepted sample is the full first-transmission
		// round trip. time.Since reads only the monotonic clock,
		// where time.Now reads the wall clock too.
		rtt := time.Since(sendWall)
		sampled, spurious := peer.OnAck(rtt, rtt-lastWall.Sub(sendWall), attempts)
		if spurious {
			n.ins.Spurious.Add(1)
		}
		if sampled && n.peerRTT != nil && n.peerRTT[target] != nil {
			n.peerRTT[target].Observe(rtt.Nanoseconds())
		}
	}
	err := p.clock.Adopt(stamp, q)
	if err != nil && p.rebase() {
		err = p.clock.Adopt(stamp, q)
	}
	if err != nil {
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
	p.log.add(core.Record{Kind: core.RecordSend, Peer: q, Stamp: stamp})
	return stamp, nil
}

// Recv blocks for the next incoming rendezvous from any peer, completes it,
// and returns the message. Requests stashed by earlier RecvFrom calls are
// delivered first, in arrival order.
func (p *Process) Recv() (Message, error) { return p.recv(anySender) }

// RecvFrom blocks for the next rendezvous from the specific process from,
// leaving requests from other senders pending (their senders remain
// parked, exactly as with one rendezvous channel per process pair).
// Replaying the per-process projections of a synchronous computation with
// RecvFrom is deadlock-free; with the any-source Recv it need not be. A
// sender that cannot exist — the process itself, or one outside the
// placement — is an error, as it is for Send.
func (p *Process) RecvFrom(from int) (Message, error) {
	if from == p.id {
		return Message{}, fmt.Errorf("node: process %d receiving from itself", p.id)
	}
	if from < 0 || from >= len(p.n.cfg.Placement) {
		return Message{}, fmt.Errorf("node: source %d out of range [0,%d)", from, len(p.n.cfg.Placement))
	}
	return p.recv(from)
}

// anySender is recv's from for Recv. It is also the from of the wake-up
// Stop and excludePeer post into a mailbox, which no request carries.
const anySender = -1

// recv is the one receive loop: the oldest stashed request from `from`
// (any sender for anySender), else the mailbox's, stashing other senders'.
// The wait is one receive on the mailbox. A wait on a sender whose node is
// excluded ends with ErrPeerLost, re-checked on entry and on each wake-up
// excludePeer posts into the mailbox; Stop's wake-up ends it with
// ErrStopped.
func (p *Process) recv(from int) (Message, error) {
	n := p.n
	for i, in := range p.stash {
		if from == anySender || in.from == from {
			p.stash = append(p.stash[:i], p.stash[i+1:]...)
			return p.complete(in)
		}
	}
	if n.stopped() {
		return Message{}, ErrStopped // Stop's wake-up may have gone to an earlier receive
	}
	lost := from != anySender && n.rec.OnPeerLoss == PeerLossExclude && n.isExcluded(n.cfg.Placement[from])
	t0 := n.cfg.Obs.Now()
	for !lost {
		in := <-n.mailboxes[p.id]
		switch {
		case in.from == anySender:
			// Stop's wake-up first: a one-node node has no exclusion table.
			if n.stopped() {
				return Message{}, ErrStopped
			}
			lost = n.takeWake(p.id, from)
		case from == anySender || in.from == from:
			n.ins.RecvBlockNS.Observe(n.cfg.Obs.Now() - t0)
			return p.complete(in)
		default:
			p.stash = append(p.stash, in)
		}
	}
	return Message{}, fmt.Errorf("node: process %d recvfrom %d: %w", p.id, from, ErrPeerLost)
}

// complete performs the receiver's half of the rendezvous: the Figure 5
// merge yields the stamp, which goes back to the sender — over the reply
// channel for a local sender, on an ACK frame for a remote one. A stopped
// node completes nothing, so a receive after Stop fails even when a
// request is already waiting.
func (p *Process) complete(in inbound) (Message, error) {
	if p.n.stopped() {
		return Message{}, ErrStopped
	}
	stamp, err := p.clock.Merge(in.vec, in.from)
	if err != nil && p.rebase() {
		stamp, err = p.clock.Merge(in.vec, in.from)
	}
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
		// still holds an answer the sender is about to drop.
		if !post(p.n, in.reply, answer{seq: in.seq, stamp: stamp}) {
			return Message{}, ErrStopped
		}
	} else {
		p.n.noteMerged(in.from, in.seq, p.id, stamp)
		ack := &wire.Frame{Kind: wire.KindAck, From: p.id, To: in.from, Seq: in.seq, Vec: stamp}
		if err := p.n.sendToPeer(p.n.cfg.Placement[in.from], ack); err != nil && p.n.stopped() {
			return Message{}, ErrStopped
		}
		// An ACK that died with its connection is not lost: the sender's
		// retransmission is answered from the dedup cache once the session
		// resumes.
	}
	p.n.cfg.Obs.Rendezvous(p.n.cfg.Node, p.id, in.from, obs.PhaseAck, stamp)
	p.n.ins.Rendezvous.Add(1)
	p.n.ins.Proc(p.id).Add(1)
	p.log.add(core.Record{Kind: core.RecordRecv, Peer: in.from, Stamp: stamp})
	return Message{From: in.from, Payload: in.payload, Stamp: stamp}, nil
}

// rebase switches the clock to the node's current decomposition, which a
// Join may have grown past the clock's snapshot, and reports whether it
// could. Merge and Adopt retry once after it: a channel to a process that
// joined later is the one failure a rebase cures; any other leaves the
// caller's first error standing.
func (p *Process) rebase() bool {
	p.n.mu.Lock()
	dec := p.n.dec
	p.n.mu.Unlock()
	return p.clock.Rebase(dec) == nil
}

// Internal records an internal event carrying note (Section 5). Its full
// (prev, succ, c) stamp is resolved at reconstruction time, when the next
// message, if any, is known. The log keeps note as given; the journal, the
// event recorder and the wire carry its fmt.Sprint rendering.
func (p *Process) Internal(note any) {
	if p.n.rec.Journal != nil {
		// Journal failures fail the run via journalCommit; the in-memory
		// record is still appended so the log stays consistent with the
		// clock.
		_ = p.n.journalCommit(JournalRecord{Kind: journalInternal, Proc: p.id, Note: noteText(note)})
	}
	p.log.add(core.Record{Kind: core.RecordInternal, Note: note})
	p.n.ins.InternalEvents.Add(1)
	// Guarded so the clock snapshot (a clone) and the rendering only happen
	// when a recorder is on.
	if p.n.cfg.Obs.Recording() {
		p.n.cfg.Obs.Internal(p.n.cfg.Node, p.id, p.clock.Current(), noteText(note))
	}
}

// noteText renders an internal event's note; a string is its own rendering.
func noteText(note any) string {
	if s, ok := note.(string); ok {
		return s
	}
	return fmt.Sprint(note)
}

// ReplayPrograms builds one program per process that replays the process's
// projection of tr: its messages are sent and received in projection order
// (receives use RecvFrom, which makes the replay deadlock-free for any valid
// synchronous computation) and its internal ops become Internal events noted
// "replay-int-<proc>-<step>". The runtime interleaving may differ from tr's
// linearization, but it realizes the same synchronous computation, so the
// reconstructed trace has identical per-process projections and an
// isomorphic message poset.
func ReplayPrograms(tr *trace.Trace) map[int]func(*Process) error {
	programs := make(map[int]func(*Process) error, tr.N)
	for proc, mine := range tr.ProcOps() {
		programs[proc] = func(p *Process) error {
			for step, k := range mine {
				var err error
				switch op := tr.Ops[k]; {
				case op.Kind == trace.OpInternal:
					p.Internal(fmt.Sprintf("replay-int-%d-%d", proc, step))
				case op.From == proc:
					_, err = p.Send(op.To)
				default:
					_, err = p.RecvFrom(op.From)
				}
				if err != nil {
					return fmt.Errorf("replay step %d: %w", step, err)
				}
			}
			return nil
		}
	}
	return programs
}
