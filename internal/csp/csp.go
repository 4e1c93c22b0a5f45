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
// # One rendezvous runtime
//
// A System is a one-node internal/node run — every process on node 0, no
// peers, a one-node Loop transport — so each exchange is node's local
// rendezvous, the repository's one implementation of Figure 5:
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
// invariant Reconstruct's matching relies on. csp adds the program-level
// surface: payloads on sends, one timeout for the whole run, process slots
// reserved for Join, and the Broadcast/Gather/Barrier patterns.
package csp

import (
	"fmt"
	"math"
	"sync"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
)

// The run's records and results are core's; csp names them for its callers.
type (
	// RecordKind discriminates the operations of a process's rendezvous log.
	RecordKind = core.RecordKind
	// Record is one operation of a process's rendezvous log.
	Record = core.Record
	// Result is the outcome of a completed run.
	Result = core.Result
	// InternalEvent is an internal event observed in a run, with its
	// Section 5 stamp.
	InternalEvent = core.InternalEvent
	// Message is a delivered message with its payload and Figure 5
	// timestamp.
	Message = node.Message
)

// Record kinds.
const (
	RecordSend     = core.RecordSend
	RecordRecv     = core.RecordRecv
	RecordInternal = core.RecordInternal
)

// ErrStopped is returned by Send/Recv when the run has been aborted (another
// process failed or the deadline expired).
var ErrStopped = node.ErrStopped

// Reconstruct merges per-process rendezvous logs into the run's global
// computation (core.Reconstruct).
func Reconstruct(dec *decomp.Decomposition, logs [][]Record) (*Result, error) {
	return core.Reconstruct(dec, logs)
}

// LogsFromEvents rebuilds per-process rendezvous logs from recorded events
// (node.LogsFromEvents).
func LogsFromEvents(n int, events []obs.Event) [][]Record { return node.LogsFromEvents(n, events) }

// Process is the handle a program uses to communicate: a node process whose
// sends carry a payload. Each Process is owned by exactly one goroutine; its
// methods must not be called concurrently.
type Process struct{ p *node.Process }

// ID returns the process index.
func (p *Process) ID() int { return p.p.ID() }

// Clock returns a snapshot of the process's current vector.
func (p *Process) Clock() vector.V { return p.p.Clock() }

// Send delivers payload to process q synchronously: it blocks until q has
// received the message and the acknowledgement has come back, then returns
// the message timestamp. Sending on a channel outside the edge
// decomposition, to itself, or after the system stopped is an error.
func (p *Process) Send(q int, payload any) (vector.V, error) { return p.p.SendPayload(q, payload) }

// Recv blocks for the next incoming message from any peer, acknowledges it,
// and returns it with its timestamp. Messages stashed by earlier RecvFrom
// calls are delivered first, in arrival order.
func (p *Process) Recv() (Message, error) { return p.p.Recv() }

// RecvFrom blocks for the next message from the specific process from,
// leaving messages from other senders pending (their senders remain blocked,
// exactly as with one rendezvous channel per process pair). Replaying the
// per-process projections of a synchronous computation with RecvFrom is
// deadlock-free; with the any-source Recv it need not be. Receiving from
// itself or from a process outside the capacity is an error.
func (p *Process) RecvFrom(from int) (Message, error) { return p.p.RecvFrom(from) }

// Internal records an internal event carrying note (Section 5). Its full
// (prev, succ, c) stamp is resolved when the run completes and the next
// message, if any, is known.
func (p *Process) Internal(note any) { p.p.Internal(note) }

// program adapts a csp program to the node it runs on; nil stays nil
// ("immediately done").
func program(prog func(*Process) error) func(*node.Process) error {
	if prog == nil {
		return nil
	}
	return func(np *node.Process) error { return prog(&Process{p: np}) }
}

// System runs process programs over a shared edge decomposition. Beyond the
// one-shot Run, it supports processes joining mid-run (the Section 3.3
// scalability property, live): construct with NewSystemCap to reserve
// process slots, Start the initial programs, Join newcomers with a grown
// decomposition while the run is live, and Wait for the reconstructed
// result.
type System struct {
	dec      *decomp.Decomposition // the initial decomposition; d never changes
	capacity int

	mu      sync.Mutex
	obsv    *obs.Obs
	node    *node.Node // made by Start
	stopped bool       // Stop came before Start
	done    chan struct{}
	info    *node.RunInfo // the node's Run outcome, set before done closes
	err     error
}

// NewSystem prepares a runtime for exactly dec.N() processes.
func NewSystem(dec *decomp.Decomposition) *System {
	return NewSystemCap(dec, dec.N())
}

// NewSystemCap prepares a runtime with room for up to capacity processes,
// of which dec.N() exist initially; the rest may Join later.
func NewSystemCap(dec *decomp.Decomposition, capacity int) *System {
	return &System{dec: dec, capacity: max(capacity, dec.N()), done: make(chan struct{})}
}

// Stop aborts the run; blocked Sends and Recvs return ErrStopped.
func (s *System) Stop() {
	s.mu.Lock()
	s.stopped = true
	n := s.node
	s.mu.Unlock()
	if n != nil {
		n.Stop()
	}
}

// SetObs installs the observability surface. Call before Start, which
// builds the node with it: the run's events carry node 0.
func (s *System) SetObs(o *obs.Obs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsv = o
}

// Obs returns the installed observability surface (nil when disabled).
func (s *System) Obs() *obs.Obs {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obsv
}

// Start launches one program per initial process (nil means "no goroutine;
// immediately done"). It returns an error if already started or if the
// program count does not match the decomposition.
func (s *System) Start(programs []func(*Process) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.node != nil {
		return fmt.Errorf("csp: system already started")
	}
	if len(programs) != s.dec.N() {
		return fmt.Errorf("csp: %d programs for %d processes", len(programs), s.dec.N())
	}
	n, err := node.New(node.Config{
		Placement: make([]int, s.capacity), // all on node 0; slots past dec.N() await Join
		Dec:       s.dec,
		// Wait's timeout bounds the whole run; no single rendezvous has one.
		RendezvousTimeout: math.MaxInt64,
		Obs:               s.obsv,
	}, node.NewLoop(1).Transport(0))
	if err != nil {
		return fmt.Errorf("csp: %w", err)
	}
	if s.stopped {
		n.Stop()
	}
	s.node = n
	progs := make(map[int]func(*node.Process) error, len(programs))
	for i, prog := range programs {
		progs[i] = program(prog)
	}
	go func() {
		s.info, s.err = n.Run(progs)
		close(s.done)
	}()
	return nil
}

// Join adds one new process while the run is live: grown must extend the
// current decomposition by exactly the new process (same d, old channels
// unchanged — decomp.Extends), and must fit the reserved capacity. It
// returns the new process id. Running processes pick up the grown
// decomposition lazily on their next exchange with the newcomer; all
// timestamps remain mutually comparable.
func (s *System) Join(grown *decomp.Decomposition, prog func(*Process) error) (int, error) {
	if prog == nil {
		return 0, fmt.Errorf("csp: joining process needs a program")
	}
	s.mu.Lock()
	n := s.node
	s.mu.Unlock()
	if n == nil {
		return 0, fmt.Errorf("csp: Join before Start")
	}
	return n.Join(grown, program(prog))
}

// Wait blocks until every launched program has returned (or the timeout
// expires, stopping the system) and reconstructs the computation. A failed
// run reports its root cause: the lowest-id program error that is not a
// mere ErrStopped echo, else any.
func (s *System) Wait(timeout time.Duration) (*Result, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-s.done:
	case <-timer.C:
		s.Stop()
		<-s.done
		s.node.Close()
		return nil, fmt.Errorf("csp: run exceeded %v (deadlock or livelock?)", timeout)
	}
	s.node.Close()
	if s.err != nil {
		return nil, s.err
	}
	logs := make([][]Record, len(s.info.Logs))
	for p, log := range s.info.Logs {
		logs[p] = log
	}
	return Reconstruct(s.dec, logs)
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
