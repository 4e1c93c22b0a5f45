// Package csp is a CSP-style synchronous message-passing runtime: processes
// are goroutines, a send blocks until the receiver has delivered the
// message and acknowledged it (the Murty–Garg implementation of synchronous
// ordering the paper assumes in Section 3.2), and the vector clocks of the
// online algorithm (internal/core) ride on the messages and
// acknowledgements exactly as in Figure 5.
//
// The runtime exists to validate the algorithm under real concurrency
// (experiment E14): after a run, the per-process logs are merged back into
// a canonical trace (always possible for a synchronous computation) and the
// observed timestamps are compared against the sequential stamper and the
// ground-truth poset.
//
// # Rendezvous state machine
//
// Both runtimes in this repository — csp over in-process channels and
// internal/node over real transports — implement the same two-phase
// rendezvous, so their logs are interchangeable and Reconstruct serves both:
//
//	sender                          receiver
//	------                          --------
//	SYN: piggyback v_sender  ──►    park until the program receives
//	                                merge: v ← max(v, v_sender); v[g]++
//	park until acknowledged  ◄──    ACK: the merged stamp (= v(m))
//	adopt the stamp: v ← v(m)
//
// Adopting the merged stamp is equivalent to Figure 5's symmetric merge —
// lines (5)-(6) and (9)-(10) compute the same componentwise maximum on
// both sides — and both sides log the identical agreed stamp, which is the
// invariant Reconstruct's matching relies on.
package csp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/obs"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// ErrStopped is returned by Send/Recv when the run has been aborted (another
// process failed or the deadline expired).
var ErrStopped = errors.New("csp: system stopped")

// Message is a delivered message with its Figure 5 timestamp.
type Message struct {
	From    int
	Payload any
	Stamp   vector.V
}

// envelope travels on a process mailbox; ack carries the agreed stamp the
// receiver's merge produced back to the sender, which adopts it.
type envelope struct {
	from    int
	payload any
	v       vector.V
	ack     chan vector.V
}

// Process is the handle a program uses to communicate. Each Process is
// owned by exactly one goroutine; its methods must not be called
// concurrently.
type Process struct {
	id    int
	sys   *System
	clock *core.Clock
	log   []Record
	// stash holds envelopes taken off the mailbox while waiting for a
	// specific sender in RecvFrom; their senders stay parked on their acks.
	stash []envelope
}

// ID returns the process index.
func (p *Process) ID() int { return p.id }

// Clock returns a snapshot of the process's current vector.
func (p *Process) Clock() vector.V { return p.clock.Current() }

// Send delivers payload to process q synchronously: it blocks until q has
// received the message and the acknowledgement has come back, then returns
// the message timestamp. Sending on a channel outside the edge
// decomposition, to itself, or after the system stopped is an error.
func (p *Process) Send(q int, payload any) (vector.V, error) {
	if q == p.id {
		return nil, fmt.Errorf("csp: process %d sending to itself", p.id)
	}
	if q < 0 || q >= p.sys.capacity {
		return nil, fmt.Errorf("csp: destination %d out of range [0,%d)", q, p.sys.capacity)
	}
	env := envelope{
		from:    p.id,
		payload: payload,
		v:       p.clock.Current(),
		ack:     make(chan vector.V, 1),
	}
	p.sys.obsv.Rendezvous(-1, p.id, q, obs.PhaseSyn, env.v)
	t0 := p.sys.obsv.Now()
	select {
	case p.sys.mailboxes[q] <- env:
	case <-p.sys.stop:
		return nil, ErrStopped
	}
	t1 := p.sys.obsv.Now()
	p.sys.ins.SendBlockNS.Observe(t1 - t0)
	var stamp vector.V
	select {
	case stamp = <-env.ack:
	case <-p.sys.stop:
		return nil, ErrStopped
	}
	p.sys.ins.SynAckNS.Observe(p.sys.obsv.Now() - t1)
	if err := p.adopt(stamp, q); err != nil {
		return nil, err
	}
	p.sys.obsv.Rendezvous(-1, p.id, q, obs.PhaseAdopt, stamp)
	p.sys.ins.Rendezvous.Add(1)
	p.sys.ins.Proc(p.id).Add(1)
	if p.sys.ins.CausalTicks != nil {
		p.sys.ins.CausalTicks.Observe(obs.StampSum(stamp) - obs.StampSum(env.v))
	}
	p.log = append(p.log, Record{Kind: RecordSend, Peer: q, Stamp: stamp})
	return stamp, nil
}

// merge applies lines (5)-(6)/(9)-(10) of Figure 5 on the receiver's side.
// Like adopt, it retries once on the current decomposition when the
// channel belongs to a growth this process has not observed yet (a peer
// that joined after the clock's snapshot).
func (p *Process) merge(remote vector.V, peer int) (vector.V, error) {
	stamp, err := p.clock.Merge(remote, peer)
	if err != nil && p.rebase() {
		return p.clock.Merge(remote, peer)
	}
	return stamp, err
}

// adopt takes the agreed stamp from the ACK on the sender's side.
func (p *Process) adopt(stamp vector.V, peer int) error {
	err := p.clock.Adopt(stamp, peer)
	if err != nil && p.rebase() {
		return p.clock.Adopt(stamp, peer)
	}
	return err
}

// rebase switches the clock to the current decomposition and reports
// whether it could; when it cannot, the failure was not a growth issue and
// the caller reports its original error.
func (p *Process) rebase() bool { return p.clock.Rebase(p.sys.dec.Load()) == nil }

// Recv blocks for the next incoming message from any peer, acknowledges it,
// and returns it with its timestamp. Messages stashed by earlier RecvFrom
// calls are delivered first, in arrival order.
func (p *Process) Recv() (Message, error) {
	var env envelope
	if len(p.stash) > 0 {
		env = p.stash[0]
		copy(p.stash, p.stash[1:])
		p.stash = p.stash[:len(p.stash)-1]
	} else {
		t0 := p.sys.obsv.Now()
		select {
		case env = <-p.sys.mailboxes[p.id]:
		case <-p.sys.stop:
			return Message{}, ErrStopped
		}
		p.sys.ins.RecvBlockNS.Observe(p.sys.obsv.Now() - t0)
	}
	return p.complete(env)
}

// RecvFrom blocks for the next message from the specific process from,
// leaving messages from other senders pending (their senders remain blocked,
// exactly as with one rendezvous channel per process pair). Replaying the
// per-process projections of a synchronous computation with RecvFrom is
// deadlock-free; with the any-source Recv it need not be.
func (p *Process) RecvFrom(from int) (Message, error) {
	for i, env := range p.stash {
		if env.from == from {
			p.stash = append(p.stash[:i], p.stash[i+1:]...)
			return p.complete(env)
		}
	}
	t0 := p.sys.obsv.Now()
	for {
		var env envelope
		select {
		case env = <-p.sys.mailboxes[p.id]:
		case <-p.sys.stop:
			return Message{}, ErrStopped
		}
		if env.from == from {
			p.sys.ins.RecvBlockNS.Observe(p.sys.obsv.Now() - t0)
			return p.complete(env)
		}
		p.stash = append(p.stash, env)
	}
}

// complete performs the receiver's half of the Figure 5 exchange: the merge
// yields the stamp, which the ACK carries back to the sender.
func (p *Process) complete(env envelope) (Message, error) {
	stamp, err := p.merge(env.v, env.from)
	if err != nil {
		// No ACK will come: stop the run so the parked sender returns.
		p.sys.Stop()
		return Message{}, err
	}
	p.sys.obsv.Rendezvous(-1, p.id, env.from, obs.PhaseMerge, stamp)
	// The buffered ack channel cannot block (the sender is parked on it).
	env.ack <- stamp
	p.sys.obsv.Rendezvous(-1, p.id, env.from, obs.PhaseAck, stamp)
	p.sys.ins.Rendezvous.Add(1)
	p.sys.ins.Proc(p.id).Add(1)
	p.log = append(p.log, Record{Kind: RecordRecv, Peer: env.from, Stamp: stamp})
	return Message{From: env.from, Payload: env.payload, Stamp: stamp}, nil
}

// Internal records an internal event carrying note (Section 5). Its full
// (prev, succ, c) stamp is resolved when the run completes and the next
// message, if any, is known.
func (p *Process) Internal(note any) {
	p.log = append(p.log, Record{Kind: RecordInternal, Note: note})
	p.sys.ins.InternalEvents.Add(1)
	// The note rendering allocates, so it only happens when a recorder is on.
	if p.sys.obsv.Recording() {
		p.sys.obsv.Internal(-1, p.id, p.clock.Current(), fmt.Sprint(note))
	}
}

// System runs process programs over a shared edge decomposition. Beyond the
// one-shot Run, it supports processes joining mid-run (the Section 3.3
// scalability property, live): construct with NewSystemCap to reserve
// mailbox capacity, Start the initial programs, Join newcomers with a grown
// decomposition while the run is live, and Wait for the reconstructed
// result.
type System struct {
	capacity  int
	mailboxes []chan envelope
	stop      chan struct{}
	stopOnce  sync.Once

	// dec is the current decomposition; processes rebase to it lazily when
	// they touch a channel their snapshot does not cover.
	dec atomic.Pointer[decomp.Decomposition]

	// obsv and ins are the observability surface and its resolved
	// instruments (SetObs). Both tolerate their zero/nil disabled state on
	// every hot path.
	obsv *obs.Obs
	ins  obs.Instruments

	mu       sync.Mutex
	procs    []*Process
	running  int
	started  bool
	finished bool
	errs     map[int]error
	allDone  chan struct{}
}

// NewSystem prepares a runtime for exactly dec.N() processes.
func NewSystem(dec *decomp.Decomposition) *System {
	return NewSystemCap(dec, dec.N())
}

// NewSystemCap prepares a runtime with room for up to capacity processes,
// of which dec.N() exist initially; the rest may Join later.
func NewSystemCap(dec *decomp.Decomposition, capacity int) *System {
	if capacity < dec.N() {
		capacity = dec.N()
	}
	mbs := make([]chan envelope, capacity)
	for i := range mbs {
		mbs[i] = make(chan envelope) // unbuffered: the rendezvous itself
	}
	s := &System{
		capacity:  capacity,
		mailboxes: mbs,
		stop:      make(chan struct{}),
		errs:      make(map[int]error),
		allDone:   make(chan struct{}),
	}
	s.dec.Store(dec)
	return s
}

// Stop aborts the run; blocked Sends and Recvs return ErrStopped.
func (s *System) Stop() { s.stopOnce.Do(func() { close(s.stop) }) }

// SetObs installs the observability surface. Call before Start: the
// instruments are resolved once here, so afterwards the rendezvous hot
// paths touch only atomics (or, with a nil Obs, nothing at all).
func (s *System) SetObs(o *obs.Obs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsv = o
	s.ins = obs.NewInstruments(o.Registry(), s.capacity)
}

// Obs returns the installed observability surface (nil when disabled).
func (s *System) Obs() *obs.Obs { return s.obsv }

// Start launches one program per initial process (nil means "no goroutine;
// immediately done"). It returns an error if already started or if the
// program count does not match the decomposition.
func (s *System) Start(programs []func(*Process) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("csp: system already started")
	}
	dec := s.dec.Load()
	if len(programs) != dec.N() {
		return fmt.Errorf("csp: %d programs for %d processes", len(programs), dec.N())
	}
	s.procs = make([]*Process, dec.N())
	for i := range s.procs {
		s.procs[i] = &Process{id: i, sys: s, clock: core.NewClock(i, dec)}
	}
	s.started = true
	for i, prog := range programs {
		if prog != nil {
			s.launch(s.procs[i], prog)
		}
	}
	if s.running == 0 {
		s.finish()
	}
	return nil
}

// Join adds one new process while the run is live: grown must extend the
// current decomposition by exactly the new process (same d, old channels
// unchanged — decomp.Extends), and must fit the reserved capacity. It
// returns the new process id. Running processes pick up the grown
// decomposition lazily on their next exchange with the newcomer; all
// timestamps remain mutually comparable.
func (s *System) Join(grown *decomp.Decomposition, program func(*Process) error) (int, error) {
	if program == nil {
		return 0, fmt.Errorf("csp: joining process needs a program")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return 0, fmt.Errorf("csp: Join before Start")
	}
	if s.finished {
		return 0, fmt.Errorf("csp: system already drained")
	}
	cur := s.dec.Load()
	if grown.N() != cur.N()+1 {
		return 0, fmt.Errorf("csp: Join adds one process; decomposition grows %d -> %d", cur.N(), grown.N())
	}
	if grown.N() > s.capacity {
		return 0, fmt.Errorf("csp: capacity %d exhausted", s.capacity)
	}
	if err := decomp.Extends(cur, grown); err != nil {
		return 0, fmt.Errorf("csp: %w", err)
	}
	s.dec.Store(grown)
	id := grown.N() - 1
	p := &Process{id: id, sys: s, clock: core.NewClock(id, grown)}
	s.procs = append(s.procs, p)
	s.launch(p, program)
	return id, nil
}

// launch spawns a program goroutine; the caller holds s.mu.
func (s *System) launch(p *Process, prog func(*Process) error) {
	s.running++
	go func() {
		err := prog(p)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			s.errs[p.id] = err
		}
		s.running--
		if s.running == 0 {
			s.finish()
		}
		if err != nil {
			s.Stop()
		}
	}()
}

// finish marks the run drained; the caller holds s.mu.
func (s *System) finish() {
	if !s.finished {
		s.finished = true
		close(s.allDone)
	}
}

// Wait blocks until every launched program has returned (or the timeout
// expires, stopping the system) and reconstructs the computation.
func (s *System) Wait(timeout time.Duration) (*Result, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-s.allDone:
	case <-timer.C:
		s.Stop()
		<-s.allDone
		return nil, fmt.Errorf("csp: run exceeded %v (deadlock or livelock?)", timeout)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Report the root cause: the smallest-id error that is not a mere
	// ErrStopped echo, falling back to any error.
	if len(s.errs) > 0 {
		pick := -1
		for id, err := range s.errs {
			isRoot := !errors.Is(err, ErrStopped)
			if pick == -1 {
				pick = id
				continue
			}
			pickRoot := !errors.Is(s.errs[pick], ErrStopped)
			if (isRoot && !pickRoot) || (isRoot == pickRoot && id < pick) {
				pick = id
			}
		}
		return nil, fmt.Errorf("csp: process %d: %w", pick, s.errs[pick])
	}
	logs := make([][]Record, len(s.procs))
	for i, p := range s.procs {
		logs[i] = p.log
	}
	return Reconstruct(s.dec.Load(), logs)
}

// InternalEvent is an internal event observed in a run, with its Section 5
// stamp.
type InternalEvent struct {
	Note  any
	Stamp core.EventStamp
}

// Result is the outcome of a completed run.
type Result struct {
	// Trace is the reconstructed global computation (a valid linearization
	// of the run).
	Trace *trace.Trace
	// Stamps are the observed message timestamps aligned with
	// Trace.Messages().
	Stamps []vector.V
	// Internal are the observed internal events with resolved stamps, in
	// Trace order.
	Internal []InternalEvent
}

// Run executes one program per process and reconstructs the computation.
// Every process must have a program (nil means "immediately done"). The
// timeout bounds the whole run; on expiry the system stops and Run returns
// an error. Program errors abort the run.
func Run(dec *decomp.Decomposition, programs []func(*Process) error, timeout time.Duration) (*Result, error) {
	return RunObs(dec, programs, timeout, nil)
}

// RunObs is Run with an observability surface attached: the run's rendezvous
// phases and internal events flow into o's recorder and its metrics into o's
// registry. A nil o is exactly Run.
func RunObs(dec *decomp.Decomposition, programs []func(*Process) error, timeout time.Duration, o *obs.Obs) (*Result, error) {
	sys := NewSystem(dec)
	sys.SetObs(o)
	if err := sys.Start(programs); err != nil {
		return nil, err
	}
	return sys.Wait(timeout)
}
