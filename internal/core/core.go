// Package core implements the paper's primary contribution: the online
// algorithm of Figure 5 for timestamping messages in synchronous
// computations, and its Section 5 extension to internal events.
//
// Unlike Fidge–Mattern vector clocks, which dedicate one vector component
// per process, the online algorithm dedicates one component per edge group
// of an edge decomposition of the communication topology (internal/decomp).
// Each process Pi maintains a vector v_i of size d (the decomposition
// size), initially zero. For a message from Pi to Pj on a channel in edge
// group E_g:
//
//	(1) Pi piggybacks v_i on the message;
//	(2) Pj piggybacks v_j on the acknowledgement;
//	(3) both sides set their vector to the componentwise maximum and then
//	    increment component g;
//	(4) the resulting (identical) vector is the message's timestamp.
//
// Theorem 4: m1 ↦ m2 ⟺ v(m1) < v(m2) in the vector order of Equation (2).
package core

import (
	"fmt"

	"syncstamp/internal/decomp"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// Clock is the per-process state of the online algorithm: the local vector
// v_i and the shared edge decomposition. It is the component a process
// embeds into its messaging runtime (internal/csp drives Clocks from real
// goroutines). Clock is not safe for concurrent use; each process owns one.
type Clock struct {
	proc int
	dec  *decomp.Decomposition
	v    vector.V
}

// NewClock returns the initial clock of process proc (all components zero).
func NewClock(proc int, dec *decomp.Decomposition) *Clock {
	if proc < 0 || proc >= dec.N() {
		panic(fmt.Sprintf("core: process %d out of range [0,%d)", proc, dec.N()))
	}
	return &Clock{proc: proc, dec: dec, v: vector.New(dec.D())}
}

// Proc returns the owning process index.
func (c *Clock) Proc() int { return c.proc }

// Current returns a snapshot of the local vector — the value piggybacked on
// an outgoing message (line (2) of Figure 5) or on an acknowledgement
// (line (4)).
func (c *Clock) Current() vector.V { return c.v.Clone() }

// Rebase switches the clock to a grown decomposition (same d; every channel
// of the current decomposition keeps its group — see decomp.Extends). The
// local vector is untouched, so all earlier timestamps stay valid. Rebase
// must only be called by the clock's owning goroutine.
func (c *Clock) Rebase(dec *decomp.Decomposition) error {
	if err := decomp.Extends(c.dec, dec); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	c.dec = dec
	return nil
}

// Merge implements lines (5)–(6) / (9)–(10) of Figure 5: componentwise
// maximum with the peer's piggybacked vector, then increment the component
// of the edge group containing the channel to peer. It returns the message
// timestamp (a copy). Merge fails if the channel (proc, peer) is not
// covered by the decomposition.
func (c *Clock) Merge(remote vector.V, peer int) (vector.V, error) {
	g, ok := c.dec.GroupOf(c.proc, peer)
	if !ok {
		return nil, fmt.Errorf("core: channel (%d,%d) not covered by the edge decomposition", c.proc, peer)
	}
	c.v.Max(remote)
	c.v[g]++
	return c.v.Clone(), nil
}

// Adopt sets the clock to the agreed stamp of a rendezvous with peer that
// the other side computed (the ACK of internal/node and internal/csp
// carries the merged stamp rather than the pre-merge vector). Adopting is
// equivalent to the symmetric merge of Figure 5: the stamp is
// max(v_self, v_peer) with the channel's component incremented, so it
// dominates the local vector componentwise — Adopt rejects a stamp that
// does not, since that indicates a protocol error or a corrupt frame. The
// stamp is copied into the clock's own vector, which Current and Merge
// only ever hand out as clones, so the caller keeps the stamp and a warm
// Adopt allocates nothing.
func (c *Clock) Adopt(stamp vector.V, peer int) error {
	if _, ok := c.dec.GroupOf(c.proc, peer); !ok {
		return fmt.Errorf("core: channel (%d,%d) not covered by the edge decomposition", c.proc, peer)
	}
	if len(stamp) != len(c.v) {
		return fmt.Errorf("core: stamp has %d components, clock has %d", len(stamp), len(c.v))
	}
	if !vector.Leq(c.v, stamp) {
		return fmt.Errorf("core: stamp %v does not dominate local vector %v", stamp, c.v)
	}
	copy(c.v, stamp)
	return nil
}

// GroupMap is all the online algorithm needs of an edge decomposition: the
// process count N, the group count D (the vector size), and each channel's
// group. *decomp.Decomposition satisfies it, and so do topologies too large
// to materialize as one (internal/load's arithmetic client-server stars).
type GroupMap interface {
	N() int
	D() int
	GroupOf(a, b int) (int, bool)
}

// Stamper runs the online algorithm sequentially over a recorded
// computation, exploiting the equivalence of synchronous computations with
// instantaneous-message sequences: processing the global message sequence in
// order performs exactly the exchanges the distributed algorithm performs.
// StampMessage calls on disjoint process pairs may run concurrently, since
// each touches only its two vectors; Extend must not overlap any call.
type Stamper struct {
	groups GroupMap
	clocks []vector.V
}

// NewStamper returns a Stamper for groups.N() processes, all clocks zero.
func NewStamper(groups GroupMap) *Stamper {
	clocks := make([]vector.V, groups.N())
	for i := range clocks {
		clocks[i] = vector.New(groups.D())
	}
	return &Stamper{groups: groups, clocks: clocks}
}

// D returns the vector size in use (the decomposition size).
func (s *Stamper) D() int { return s.groups.D() }

// StampMessage performs the rendezvous of one message from one process to
// another and returns its timestamp.
func (s *Stamper) StampMessage(from, to int) (vector.V, error) {
	if from < 0 || from >= len(s.clocks) || to < 0 || to >= len(s.clocks) || from == to {
		return nil, fmt.Errorf("core: invalid message %d->%d for %d processes", from, to, len(s.clocks))
	}
	g, ok := s.groups.GroupOf(from, to)
	if !ok {
		return nil, fmt.Errorf("core: channel (%d,%d) not covered by the edge decomposition", from, to)
	}
	// Exchange: both sides converge to max(v_from, v_to), then both
	// increment component g, yielding equal vectors on both sides.
	s.clocks[from].Max(s.clocks[to])
	s.clocks[from][g]++
	copy(s.clocks[to], s.clocks[from])
	return s.clocks[from].Clone(), nil
}

// ClockOf returns a snapshot of the current vector of process p.
func (s *Stamper) ClockOf(p int) vector.V { return s.clocks[p].Clone() }

// Extend switches the stamper to a grown decomposition (same d, same or
// larger N — see decomp.Extends): new processes start with zero clocks and
// every previously issued timestamp remains valid. This is the paper's
// Section 3.3 scalability property in executable form. Only a stamper built
// on a *decomp.Decomposition can grow; any other group map is refused.
func (s *Stamper) Extend(dec *decomp.Decomposition) error {
	cur, ok := s.groups.(*decomp.Decomposition)
	if !ok {
		return fmt.Errorf("core: cannot extend a stamper built on %T; only a decomposition grows", s.groups)
	}
	if err := decomp.Extends(cur, dec); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for p := len(s.clocks); p < dec.N(); p++ {
		s.clocks = append(s.clocks, vector.New(dec.D()))
	}
	s.groups = dec
	return nil
}

// StampTrace timestamps every message of tr with the online algorithm under
// dec and returns the timestamps indexed by message index.
func StampTrace(tr *trace.Trace, dec *decomp.Decomposition) ([]vector.V, error) {
	if tr.N != dec.N() {
		return nil, fmt.Errorf("core: trace has %d processes, decomposition %d", tr.N, dec.N())
	}
	s := NewStamper(dec)
	out := make([]vector.V, 0, tr.NumMessages())
	for i, op := range tr.Ops {
		if op.Kind != trace.OpMessage {
			continue
		}
		v, err := s.StampMessage(op.From, op.To)
		if err != nil {
			return nil, fmt.Errorf("core: op %d: %w", i, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Precedes reports m1 ↦ m2 from the two message timestamps (Theorem 4).
func Precedes(v1, v2 vector.V) bool { return vector.Less(v1, v2) }

// Concurrent reports m1 ‖ m2 from the two message timestamps.
func Concurrent(v1, v2 vector.V) bool { return vector.Concurrent(v1, v2) }
