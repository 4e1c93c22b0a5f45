package node

import (
	"fmt"
	"os"

	"syncstamp/internal/obs"
)

// Flight-recorder dumps.
//
// The flight recorder is the node's obs.Recorder: with Config.FlightRecorder
// alone, one bounded ring per hosted process. This file is its durability
// story. A dump serializes the held events in the deterministic flight
// order (obs.SortFlight: stamp sum, proc, seq) as binary journal records
// (kind = the event's phase, peer -1 for an internal event) and lands them
// atomically: written and fsynced to a temp file through the journal
// machinery, then renamed over the dump path, so a reader never observes a
// torn dump and the newest dump always wins. Dumps fire on the node's first
// failure, on a peer loss, at end of run, and on demand (SIGQUIT,
// /debug/flight?dump=1).
//
// A kill -9 leaves no dump from the dying incarnation — nothing can — but
// the journal does the remembering: Restore re-emits every committed
// operation through the obs hooks, so a restarted node's rings carry the
// committed history (up to their size) and its end-of-run dump is a causal
// post-mortem of the run, oracle-checkable via csp.LogsFromEvents.

// DumpFlight writes the recorder's held events to Config.FlightDump and
// reports whether a dump was written. It is a no-op (false) when the
// flight recorder is off, the dump path is empty, or nothing was recorded
// yet; concurrent dumps serialize and each overwrites the last. Errors are
// swallowed: a dump is a best-effort post-mortem taken on failure paths
// that must not themselves fail.
func (n *Node) DumpFlight() bool {
	if n.cfg.FlightRecorder <= 0 || n.cfg.FlightDump == "" {
		return false
	}
	events := n.cfg.Obs.Recorder.Events()
	if len(events) == 0 {
		return false
	}
	obs.SortFlight(events)
	n.dumpMu.Lock()
	defer n.dumpMu.Unlock()
	return WriteFlightDump(n.cfg.FlightDump, events) == nil
}

// WriteFlightDump writes events, in the order given, to path atomically:
// temp file, one fsynced batch, rename.
func WriteFlightDump(path string, events []obs.Event) error {
	recs := make([]JournalRecord, 0, len(events))
	for _, e := range events {
		recs = append(recs, JournalRecord{
			Kind:  e.Phase.String(),
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

// ReadFlightDump reads a flight dump back into obs events, in the dump's
// (deterministic) order, without modifying the file. Reading shares the
// journal's torn-tail tolerance, though a published dump is always
// complete — only a temp file can tear.
func ReadFlightDump(path string) ([]obs.Event, error) {
	recs, err := readJournal(path)
	if err != nil {
		return nil, err
	}
	events := make([]obs.Event, 0, len(recs))
	for i, rec := range recs {
		ph, perr := obs.ParsePhase(rec.Kind)
		if perr != nil {
			return nil, fmt.Errorf("node: flight dump %s record %d: %w", path, i, perr)
		}
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
	return events, nil
}
