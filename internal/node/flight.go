package node

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// Event files.
//
// A run's obs events have one on-disk format, the flight dump: a journal
// file (journal.go's records) holding one meta record, then the events in
// the deterministic flight order (obs.SortFlight: stamp sum, proc, seq),
// each a record whose kind is its phase (peer -1 for an internal event).
// The meta record's node is the emitting node (-1 if none), its note the
// decomposition in decomp.WriteText form, and its stamp the frame table:
// frame counts, then byte counts, indexed by wire.Kind. A dump lands
// atomically — written and fsynced to a temp file, then renamed over the
// path — so a reader never sees a torn dump. The flight recorder dumps on
// the node's first failure, on a peer loss, at end of run (the one dump
// with a frame table), and on demand (SIGQUIT, /debug/flight?dump=1);
// tsnode -obs-trace writes the same file, and tsanalyze reads either.
//
// A kill -9 leaves no dump from the dying incarnation — nothing can — but
// the journal does the remembering: Restore re-emits every committed
// operation through the obs hooks, so a restarted node's end-of-run dump is
// a causal post-mortem of the run, oracle-checkable via LogsFromEvents.

// DumpMeta is an event file's meta record.
type DumpMeta struct {
	// Node is the emitting node (a csp run is node 0), or -1 for events
	// written outside any node.
	Node int
	// Dec is the run's edge decomposition; it fixes N and d.
	Dec *decomp.Decomposition
	// Frames is the node's sent wire traffic by frame kind, zero in a
	// mid-run dump.
	Frames wire.Stats
}

// phaseKinds maps each obs phase to its event-file record kind: the
// rendezvous phases have kinds of their own, and an internal event shares
// the journal's.
var phaseKinds = [...]JournalKind{
	obs.PhaseSyn:      flightSyn,
	obs.PhaseMerge:    flightMerge,
	obs.PhaseAck:      flightAck,
	obs.PhaseAdopt:    flightAdopt,
	obs.PhaseInternal: journalInternal,
}

// phaseOf inverts phaseKinds: the phase of an event record of kind k, or 0
// when k is no phase's kind.
func phaseOf(k JournalKind) obs.Phase {
	for ph, pk := range phaseKinds {
		if pk == k {
			return obs.Phase(ph)
		}
	}
	return 0
}

// DumpFlight writes the recorder's held events to Config.FlightDump, with a
// zero frame table, and reports whether a dump was written. It is a no-op
// (false) when the flight recorder is off, the dump path is empty, or
// nothing was recorded yet; concurrent dumps serialize and each overwrites
// the last. Errors are swallowed: a dump is a best-effort post-mortem taken
// on failure paths that must not themselves fail.
func (n *Node) DumpFlight() bool { return n.dumpFlight(wire.Stats{}) }

// dumpFlight is DumpFlight with the given frame table.
func (n *Node) dumpFlight(frames wire.Stats) bool {
	if n.cfg.FlightRecorder <= 0 || n.cfg.FlightDump == "" {
		return false
	}
	events := n.cfg.Obs.Recorder.Events()
	if len(events) == 0 {
		return false
	}
	n.dumpMu.Lock()
	defer n.dumpMu.Unlock()
	return WriteFlightDump(n.cfg.FlightDump, DumpMeta{Node: n.cfg.Node, Dec: n.cfg.Dec, Frames: frames}, events) == nil
}

// WriteFlightDump writes meta, then events in flight order, to path
// atomically: temp file, one fsynced batch, rename. The events slice is not
// reordered.
func WriteFlightDump(path string, meta DumpMeta, events []obs.Event) error {
	var dec strings.Builder
	if err := decomp.WriteText(&dec, meta.Dec); err != nil {
		return fmt.Errorf("node: flight dump meta: %w", err)
	}
	table := append(append(make(vector.V, 0, 2*wire.KindMax), meta.Frames.Frames[:]...), meta.Frames.Bytes[:]...)
	recs := make([]JournalRecord, 0, 1+len(events))
	recs = append(recs, JournalRecord{Kind: journalMeta, Node: meta.Node, Stamp: table, Note: dec.String()})
	events = slices.Clone(events)
	obs.SortFlight(events)
	for _, e := range events {
		var kind JournalKind // 0, which appendRecord refuses, for a phase outside the table
		if int(e.Phase) < len(phaseKinds) {
			kind = phaseKinds[e.Phase]
		}
		recs = append(recs, JournalRecord{
			Kind:  kind,
			Proc:  e.Proc,
			Peer:  e.Peer,
			Seq:   uint64(e.Seq),
			Stamp: e.Stamp,
			Note:  e.Note,
			Node:  e.Node,
		})
	}
	tmp := path + ".tmp"
	_ = os.Remove(tmp) // a stale temp from an interrupted dump is garbage
	jr, _, err := OpenJournal(tmp)
	if err != nil {
		return err
	}
	if _, err := jr.AppendBatch(recs); err != nil {
		_ = jr.Close()
		return err
	}
	if err := jr.Close(); err != nil {
		return fmt.Errorf("node: close flight dump: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("node: publish flight dump: %w", err)
	}
	return nil
}

// ReadFlightDump reads an event file back, without modifying it: the meta
// record, which must come first and only once, then the events in file
// (flight) order. Each event must be a known phase of a process in [0, N),
// with a peer in [0, N) or, for an internal event, -1, and a d-component
// stamp. Each process's events must be seqs 0, 1, …, k−1: a flight ring
// that wrapped holds only a tail. Torn tails are tolerated as in a journal,
// though only a temp file can tear.
func ReadFlightDump(path string) (DumpMeta, []obs.Event, error) {
	fail := func(format string, args ...any) (DumpMeta, []obs.Event, error) {
		return DumpMeta{}, nil, fmt.Errorf("node: event file %s: %s", path, fmt.Sprintf(format, args...))
	}
	recs, err := readJournal(path)
	if err != nil {
		return DumpMeta{}, nil, err
	}
	if len(recs) == 0 || recs[0].Kind != journalMeta {
		return fail("no meta record first")
	}
	dec, err := decomp.ReadText(strings.NewReader(recs[0].Note))
	if err != nil {
		return fail("meta record: %v", err)
	}
	if len(recs[0].Stamp) != 2*int(wire.KindMax) {
		return fail("meta record: frame table of %d entries, want %d", len(recs[0].Stamp), 2*wire.KindMax)
	}
	meta := DumpMeta{Node: recs[0].Node, Dec: dec}
	copy(meta.Frames.Frames[:], recs[0].Stamp)
	copy(meta.Frames.Bytes[:], recs[0].Stamp[wire.KindMax:])
	n, d := dec.N(), dec.D()
	events := make([]obs.Event, 0, len(recs)-1)
	seqs := make([][]int, n)
	for i, rec := range recs[1:] {
		ph := phaseOf(rec.Kind)
		switch {
		case rec.Kind == journalMeta:
			return fail("record %d: a second meta record", i+1)
		case ph == 0:
			return fail("record %d: kind %d is no event phase", i+1, rec.Kind)
		case rec.Proc < 0 || rec.Proc >= n:
			return fail("record %d: process %d out of range [0,%d)", i+1, rec.Proc, n)
		case ph == obs.PhaseInternal && rec.Peer != -1:
			return fail("record %d: internal event with peer %d", i+1, rec.Peer)
		case ph != obs.PhaseInternal && (rec.Peer < 0 || rec.Peer >= n):
			return fail("record %d: %s with peer %d out of range [0,%d)", i+1, ph, rec.Peer, n)
		case len(rec.Stamp) != d:
			return fail("record %d: stamp of %d components, d = %d", i+1, len(rec.Stamp), d)
		}
		seqs[rec.Proc] = append(seqs[rec.Proc], int(rec.Seq))
		events = append(events, obs.Event{
			Node:  rec.Node,
			Proc:  rec.Proc,
			Peer:  rec.Peer,
			Seq:   int(rec.Seq),
			Phase: ph,
			Stamp: rec.Stamp,
			Note:  rec.Note,
		})
	}
	for p, s := range seqs {
		slices.Sort(s)
		for i, seq := range s {
			switch {
			case seq == i:
			case i == 0:
				return fail("process %d's events start at seq %d: the flight ring wrapped and lost the run's start (record with tsnode -obs-trace or a larger -flight)", p, seq)
			case seq == s[i-1]:
				return fail("process %d's seq %d appears twice", p, seq)
			default:
				return fail("process %d lacks seq %d", p, i)
			}
		}
	}
	return meta, events, nil
}

// LogsFromEvents rebuilds per-process rendezvous logs from recorded events.
// Only the phases that mean a completed operation carry log-equivalent
// information — PhaseAdopt is the sender's completed send, PhaseMerge the
// receiver's completed receive, both stamped with the agreed v(m);
// PhaseInternal is an internal event — so events read back from event files
// (ReadFlightDump) feed core.Reconstruct exactly like a run's own logs. This
// is how tsanalyze trace-report oracle-checks a trace: reconstruct the
// computation from the events alone and compare the stamps they claim
// against the poset.
func LogsFromEvents(n int, events []obs.Event) [][]core.Record {
	evs := append([]obs.Event(nil), events...)
	obs.SortEvents(evs)
	logs := make([][]core.Record, n)
	for _, e := range evs {
		if e.Proc < 0 || e.Proc >= n {
			continue
		}
		switch e.Phase {
		case obs.PhaseAdopt:
			logs[e.Proc] = append(logs[e.Proc], core.Record{Kind: core.RecordSend, Peer: e.Peer, Stamp: e.Stamp.Clone()})
		case obs.PhaseMerge:
			logs[e.Proc] = append(logs[e.Proc], core.Record{Kind: core.RecordRecv, Peer: e.Peer, Stamp: e.Stamp.Clone()})
		case obs.PhaseInternal:
			logs[e.Proc] = append(logs[e.Proc], core.Record{Kind: core.RecordInternal, Note: e.Note})
		}
	}
	return logs
}
