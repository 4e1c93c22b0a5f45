package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/vector"
)

// Phase identifies one step of the two-phase rendezvous (see the state
// machine in package csp's doc) or an internal event.
type Phase uint8

// Rendezvous phases, in protocol order.
const (
	// PhaseSyn: the sender dispatched its pre-merge vector.
	PhaseSyn Phase = iota + 1
	// PhaseMerge: the receiver performed the Figure 5 merge; the event
	// carries the agreed stamp v(m).
	PhaseMerge
	// PhaseAck: the receiver answered the sender with the merged stamp
	// v(m), in both runtimes.
	PhaseAck
	// PhaseAdopt: the sender adopted the agreed stamp; the rendezvous is
	// complete on its side.
	PhaseAdopt
	// PhaseInternal: a Section 5 internal event with a note.
	PhaseInternal
)

// String names the phase as it appears in JSONL.
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

// ParsePhase inverts Phase.String.
func ParsePhase(s string) (Phase, error) {
	switch s {
	case "syn":
		return PhaseSyn, nil
	case "merge":
		return PhaseMerge, nil
	case "ack":
		return PhaseAck, nil
	case "adopt":
		return PhaseAdopt, nil
	case "internal":
		return PhaseInternal, nil
	default:
		return 0, fmt.Errorf("obs: unknown phase %q", s)
	}
}

// Event is one structured trace record. Events of one process form a
// per-process total order (Seq); cross-process order is recovered from the
// Stamps, never from wall clocks.
type Event struct {
	// Node is the hosting node, or -1 for the in-process csp runtime.
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

// FrameStats is one frame kind's share of a node's wire traffic.
type FrameStats struct {
	Frames int `json:"frames"`
	Bytes  int `json:"bytes"`
}

// Meta is the JSONL header record: the topology context needed to interpret
// and verify the event stream, plus the emitting node's wire accounting.
type Meta struct {
	Version int `json:"version"`
	// Node is the emitting node, or -1 for the in-process runtime.
	Node int `json:"node"`
	// N and D are the process count and decomposition size.
	N int `json:"n"`
	D int `json:"d"`
	// Dec is the edge decomposition in decomp.WriteText form.
	Dec string `json:"dec"`
	// Frames breaks the node's sent wire traffic down by frame kind.
	Frames map[string]FrameStats `json:"frames,omitempty"`
	// Overhead is the node's piggyback accounting (core.Overhead).
	Overhead *core.Overhead `json:"overhead,omitempty"`
}

// MetaVersion is the JSONL schema version this package writes.
const MetaVersion = 1

// NewMeta builds the header record for a run under dec on the given node.
func NewMeta(node int, dec *decomp.Decomposition) (Meta, error) {
	var b strings.Builder
	if err := decomp.WriteText(&b, dec); err != nil {
		return Meta{}, fmt.Errorf("obs: encoding decomposition: %w", err)
	}
	return Meta{Version: MetaVersion, Node: node, N: dec.N(), D: dec.D(), Dec: b.String()}, nil
}

// Decomposition parses the meta's embedded decomposition.
func (m Meta) Decomposition() (*decomp.Decomposition, error) {
	dec, err := decomp.ReadText(strings.NewReader(m.Dec))
	if err != nil {
		return nil, fmt.Errorf("obs: meta decomposition: %w", err)
	}
	return dec, nil
}

// metaJSON and evJSON are the two on-disk record shapes, discriminated by
// the leading "k" field. Field order is fixed by these declarations, which
// is part of the byte-stability contract.
type metaJSON struct {
	K        string                `json:"k"` // "meta"
	Version  int                   `json:"version"`
	Node     int                   `json:"node"`
	N        int                   `json:"n"`
	D        int                   `json:"d"`
	Dec      string                `json:"dec"`
	Frames   map[string]FrameStats `json:"frames,omitempty"`
	Overhead *core.Overhead        `json:"overhead,omitempty"`
}

// evJSON's T is the record's logical time: its position in the canonical
// (proc, seq) event order. Wall clocks never appear in JSONL.
type evJSON struct {
	K     string `json:"k"` // "ev"
	T     int    `json:"t"`
	Node  int    `json:"node"`
	Proc  int    `json:"proc"`
	Seq   int    `json:"seq"`
	Phase string `json:"phase"`
	Peer  int    `json:"peer"`
	Stamp []int  `json:"stamp"`
	Note  string `json:"note,omitempty"`
}

// WriteJSONL writes the deterministic JSONL export: the meta header, then
// every event in canonical (proc, seq) order with logical timestamps. Two
// runs of the same computation produce byte-identical output.
func WriteJSONL(w io.Writer, meta Meta, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(metaJSON{
		K: "meta", Version: meta.Version, Node: meta.Node, N: meta.N, D: meta.D,
		Dec: meta.Dec, Frames: meta.Frames, Overhead: meta.Overhead,
	}); err != nil {
		return fmt.Errorf("obs: writing meta: %w", err)
	}
	evs := append([]Event(nil), events...)
	SortEvents(evs)
	for t, e := range evs {
		stamp := make([]int, len(e.Stamp))
		copy(stamp, e.Stamp)
		if err := enc.Encode(evJSON{
			K: "ev", T: t, Node: e.Node, Proc: e.Proc, Seq: e.Seq,
			Phase: e.Phase.String(), Peer: e.Peer, Stamp: stamp, Note: e.Note,
		}); err != nil {
			return fmt.Errorf("obs: writing event %d: %w", t, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses one JSONL export: the meta header followed by events.
func ReadJSONL(r io.Reader) (Meta, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var meta Meta
	var events []Event
	sawMeta := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var kind struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal([]byte(text), &kind); err != nil {
			return Meta{}, nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		switch kind.K {
		case "meta":
			if sawMeta {
				return Meta{}, nil, fmt.Errorf("obs: jsonl line %d: duplicate meta record", line)
			}
			var rec metaJSON
			if err := json.Unmarshal([]byte(text), &rec); err != nil {
				return Meta{}, nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
			}
			sawMeta = true
			meta = Meta{Version: rec.Version, Node: rec.Node, N: rec.N, D: rec.D,
				Dec: rec.Dec, Frames: rec.Frames, Overhead: rec.Overhead}
		case "ev":
			if !sawMeta {
				return Meta{}, nil, fmt.Errorf("obs: jsonl line %d: event before meta record", line)
			}
			var rec evJSON
			if err := json.Unmarshal([]byte(text), &rec); err != nil {
				return Meta{}, nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
			}
			ph, err := ParsePhase(rec.Phase)
			if err != nil {
				return Meta{}, nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
			}
			if rec.Proc < 0 || rec.Proc >= meta.N {
				return Meta{}, nil, fmt.Errorf("obs: jsonl line %d: process %d out of range [0,%d)", line, rec.Proc, meta.N)
			}
			e := Event{Node: rec.Node, Proc: rec.Proc, Peer: rec.Peer, Seq: rec.Seq, Phase: ph, Note: rec.Note}
			if rec.Stamp != nil {
				e.Stamp = make(vector.V, len(rec.Stamp))
				copy(e.Stamp, rec.Stamp)
			}
			events = append(events, e)
		default:
			return Meta{}, nil, fmt.Errorf("obs: jsonl line %d: unknown record kind %q", line, kind.K)
		}
	}
	if err := sc.Err(); err != nil {
		return Meta{}, nil, fmt.Errorf("obs: reading jsonl: %w", err)
	}
	if !sawMeta {
		return Meta{}, nil, fmt.Errorf("obs: jsonl stream has no meta record")
	}
	return meta, events, nil
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
