package csp

import (
	"fmt"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// RecordKind discriminates the operations of a process's rendezvous log.
type RecordKind int

// Record kinds.
const (
	RecordSend RecordKind = iota + 1
	RecordRecv
	RecordInternal
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case RecordSend:
		return "send"
	case RecordRecv:
		return "recv"
	case RecordInternal:
		return "internal"
	default:
		return fmt.Sprintf("RecordKind(%d)", int(k))
	}
}

// Record is one operation in a process's private rendezvous log, in program
// order. It is the unit both runtimes (internal/csp over channels,
// internal/node over real transports) persist per process: a completed send
// or receive carries the agreed message stamp v(m), an internal event
// carries its note. Per-process logs are all a synchronous computation
// leaves behind, and Reconstruct merges them back into a global trace.
type Record struct {
	// Kind is the operation.
	Kind RecordKind
	// Peer is the other process of a send/recv record.
	Peer int
	// Stamp is the agreed message timestamp of a send/recv record. Both
	// sides of a rendezvous log the identical stamp — that equality is what
	// Reconstruct matches entries by.
	Stamp vector.V
	// Note is the payload of an internal record.
	Note any
}

// Reconstruct merges per-process rendezvous logs (logs[p] is process p's log
// in program order) into a valid global linearization of the synchronous
// computation, under the decomposition the run used. At every step the
// internal events at the logs' heads are emitted, then some message must
// have both of its log entries at the heads of its participants' logs (the
// rendezvous that completed earliest in real time does); entries are
// matched by their timestamps, which both participants logged identically.
// The internal events' Section 5 stamps then follow from the trace and its
// message stamps through core.EventStamps, the derivation the sequential
// replay uses.
//
// The reconstruction is always possible for logs of a real synchronous run;
// an error indicates logs from different runs, a truncated log, or a
// rendezvous whose two sides disagree on the stamp.
func Reconstruct(dec *decomp.Decomposition, logs [][]Record) (*Result, error) {
	n := len(logs)
	heads := make([]int, n)
	res := &Result{Trace: &trace.Trace{N: n}}
	var notes []any // the internal events' notes, in trace order

	remaining := 0
	for _, log := range logs {
		remaining += len(log)
	}
	for remaining > 0 {
		// Emit the internal events at every head.
		for pi, log := range logs {
			for heads[pi] < len(log) && log[heads[pi]].Kind == RecordInternal {
				notes = append(notes, log[heads[pi]].Note)
				res.Trace.MustAppend(trace.Internal(pi))
				heads[pi]++
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		// Find a matched message at two heads.
		matched := false
		for pi, log := range logs {
			if heads[pi] >= len(log) {
				continue
			}
			entry := log[heads[pi]]
			if entry.Kind != RecordSend {
				continue
			}
			q := entry.Peer
			if q < 0 || q >= n || heads[q] >= len(logs[q]) {
				continue
			}
			peer := logs[q][heads[q]]
			if peer.Kind != RecordRecv || peer.Peer != pi || !vector.Eq(peer.Stamp, entry.Stamp) {
				continue
			}
			// Commit the rendezvous.
			res.Trace.MustAppend(trace.Message(pi, q))
			res.Stamps = append(res.Stamps, entry.Stamp.Clone())
			heads[pi]++
			heads[q]++
			remaining -= 2
			matched = true
			break
		}
		if !matched {
			return nil, fmt.Errorf("csp: inconsistent logs: no matchable rendezvous among %d remaining entries", remaining)
		}
	}
	stamps, err := core.EventStamps(res.Trace, res.Stamps, dec.D())
	if err != nil {
		return nil, fmt.Errorf("csp: %w", err)
	}
	for k, st := range stamps {
		res.Internal = append(res.Internal, InternalEvent{Note: notes[k], Stamp: st})
	}
	return res, nil
}
