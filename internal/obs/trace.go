package obs

import (
	"fmt"
	"sort"

	"syncstamp/internal/vector"
)

// Phase identifies one step of the two-phase rendezvous (see "Rendezvous
// over the wire" in package node's doc) or an internal event.
type Phase uint8

// Rendezvous phases, in protocol order.
const (
	// PhaseSyn: the sender dispatched its pre-merge vector.
	PhaseSyn Phase = iota + 1
	// PhaseMerge: the receiver performed the Figure 5 merge; the event
	// carries the agreed stamp v(m).
	PhaseMerge
	// PhaseAck: the receiver answered the sender with the merged stamp
	// v(m), into a local sender's reply slot or on an ACK frame.
	PhaseAck
	// PhaseAdopt: the sender adopted the agreed stamp; the rendezvous is
	// complete on its side.
	PhaseAdopt
	// PhaseInternal: a Section 5 internal event with a note.
	PhaseInternal
)

// String names the phase, as event files and /debug/flight do.
func (p Phase) String() string {
	switch p {
	case PhaseSyn:
		return "syn"
	case PhaseMerge:
		return "merge"
	case PhaseAck:
		return "ack"
	case PhaseAdopt:
		return "adopt"
	case PhaseInternal:
		return "internal"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Event is one structured trace record. Events of one process form a
// per-process total order (Seq); cross-process order is recovered from the
// Stamps, never from wall clocks.
type Event struct {
	// Node is the hosting node; a csp run is one node, node 0.
	Node int
	// Proc is the acting process.
	Proc int
	// Peer is the rendezvous partner, or -1 for internal events.
	Peer int
	// Seq numbers the process's events in emission order, from 0.
	Seq int
	// Phase is the protocol step this event records.
	Phase Phase
	// Stamp is the vector the phase established: the pre-merge vector for
	// PhaseSyn, the agreed stamp v(m) for PhaseMerge/PhaseAck/PhaseAdopt,
	// the process's current vector for PhaseInternal.
	Stamp vector.V
	// Note carries the internal event's payload.
	Note string
}

// SortEvents sorts events into the canonical (proc, seq) order.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Proc != evs[j].Proc {
			return evs[i].Proc < evs[j].Proc
		}
		return evs[i].Seq < evs[j].Seq
	})
}

// CausalLatencies computes each completed send's causal latency — the
// growth sum(v(m)) − sum(v_sender) between the SYN's pre-merge vector and
// the adopted stamp, i.e. how many rendezvous the sender newly learned of
// through the exchange (its own included). Computed purely from stamps, it
// is identical for every interleaving of the same computation. Latencies
// are returned in canonical event order.
func CausalLatencies(events []Event) []int64 {
	evs := append([]Event(nil), events...)
	SortEvents(evs)
	var out []int64
	pendingSyn := make(map[int]int64) // proc -> sum at last unmatched SYN
	sum := func(v vector.V) int64 {
		var s int64
		for _, x := range v {
			s += int64(x)
		}
		return s
	}
	for _, e := range evs {
		switch e.Phase {
		case PhaseSyn:
			pendingSyn[e.Proc] = sum(e.Stamp)
		case PhaseAdopt:
			if at, ok := pendingSyn[e.Proc]; ok {
				out = append(out, sum(e.Stamp)-at)
				delete(pendingSyn, e.Proc)
			}
		}
	}
	return out
}
