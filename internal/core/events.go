package core

import (
	"fmt"

	"syncstamp/internal/decomp"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// EventStamp is the Section 5 timestamp of an internal event e: the triple
// (prev(e), succ(e), c(e)).
//
//   - Prev is the timestamp of the message immediately prior to e on its
//     process; a zero vector if there is none.
//   - Succ is the timestamp of the message immediately after e; nil encodes
//     the all-∞ vector of the paper (no later message).
//   - C is the per-interval counter: reset at each external event,
//     incremented per internal event, disambiguating multiple internal
//     events between the same two messages.
//
// Proc and Op tie the stamp back to its event; Proc also scopes the counter
// comparison (see HappenedBefore).
type EventStamp struct {
	Proc int
	// Op is the index of the event's operation in the source trace.
	Op   int
	Prev vector.V
	Succ vector.V
	C    int
}

// succLeqPrev reports succ(e) ≤ prev(f) under the ∞ convention: an ∞ Succ
// is never ≤ anything, and a zero Prev only dominates a zero Succ (which
// cannot occur for real message stamps).
func succLeqPrev(e, f EventStamp) bool {
	if e.Succ == nil {
		return false
	}
	return vector.Leq(e.Succ, f.Prev)
}

// sameInterval reports that e and f lie between the same two external
// events: equal Prev and equal Succ (including both-∞).
func sameInterval(e, f EventStamp) bool {
	if (e.Succ == nil) != (f.Succ == nil) {
		return false
	}
	if !vector.Eq(e.Prev, f.Prev) {
		return false
	}
	return e.Succ == nil || vector.Eq(e.Succ, f.Succ)
}

// HappenedBefore reports e → f (Lamport's happened-before, Theorem 9).
// For events on different processes this is succ(e) ≤ prev(f); for events
// on the same process the counter breaks ties within one interval. The
// counter is deliberately not consulted across processes: two internal
// events on different processes between the same two synchronizations are
// concurrent regardless of their counters.
func (e EventStamp) HappenedBefore(f EventStamp) bool {
	if e.Proc == f.Proc {
		if sameInterval(e, f) {
			return e.C < f.C
		}
		return succLeqPrev(e, f)
	}
	return succLeqPrev(e, f)
}

// ConcurrentWith reports that neither e → f nor f → e.
func (e EventStamp) ConcurrentWith(f EventStamp) bool {
	return !e.HappenedBefore(f) && !f.HappenedBefore(e)
}

// String renders the stamp as "(prev=(1,0), succ=(2,0), c=1)@P3"; an ∞
// Succ prints as "inf".
func (e EventStamp) String() string {
	succ := "inf"
	if e.Succ != nil {
		succ = e.Succ.String()
	}
	return fmt.Sprintf("(prev=%s, succ=%s, c=%d)@P%d", e.Prev, succ, e.C, e.Proc)
}

// StampedTrace holds the result of stamping a full computation: message
// timestamps (Figure 5) and internal-event stamps (Section 5).
type StampedTrace struct {
	// Messages holds the timestamp of each message, by message index.
	Messages []vector.V
	// Internal holds one stamp per internal op, in trace order.
	Internal []EventStamp
	// D is the vector size used.
	D int
}

// StampAll runs the online algorithm over tr and assigns both message and
// internal-event timestamps: StampTrace, then EventStamps.
func StampAll(tr *trace.Trace, dec *decomp.Decomposition) (*StampedTrace, error) {
	msgs, err := StampTrace(tr, dec)
	if err != nil {
		return nil, err
	}
	internal, err := EventStamps(tr, msgs, dec.D())
	if err != nil {
		return nil, err
	}
	return &StampedTrace{Messages: msgs, Internal: internal, D: dec.D()}, nil
}

// EventStamps derives the Section 5 stamp of every internal op of tr, in
// trace order, from the message stamps msgs (msgs[k] stamps tr's k-th
// message) in vectors of d components. It is the one derivation of
// (prev, succ, c): the sequential replay and the reconstruction of a
// distributed run both call it. An internal event is stamped only once the
// message after it is known, as the paper notes; events with no later
// message keep Succ == nil (the ∞ vector).
func EventStamps(tr *trace.Trace, msgs []vector.V, d int) ([]EventStamp, error) {
	if n := tr.NumMessages(); len(msgs) != n {
		return nil, fmt.Errorf("core: %d message stamps for a trace of %d messages", len(msgs), n)
	}
	var out []EventStamp
	prev := make([]vector.V, tr.N) // last message stamp per process; nil = none
	counter := make([]int, tr.N)
	// pending[p] indexes into out the events of p awaiting their Succ.
	pending := make([][]int, tr.N)
	zero := vector.New(d)
	m := 0
	for i, op := range tr.Ops {
		switch op.Kind {
		case trace.OpInternal:
			p := op.Proc
			pv := zero
			if prev[p] != nil {
				pv = prev[p]
			}
			out = append(out, EventStamp{Proc: p, Op: i, Prev: pv.Clone(), C: counter[p]})
			pending[p] = append(pending[p], len(out)-1)
			counter[p]++
		case trace.OpMessage:
			v := msgs[m]
			m++
			for _, p := range [2]int{op.From, op.To} {
				for _, k := range pending[p] {
					out[k].Succ = v.Clone()
				}
				pending[p] = pending[p][:0]
				prev[p] = v
				counter[p] = 0
			}
		default:
			return nil, fmt.Errorf("core: op %d: invalid kind %d", i, int(op.Kind))
		}
	}
	return out, nil
}
