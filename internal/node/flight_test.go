package node

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// dumpEvents is two rendezvous between processes 0 and 1 under the path's
// one-group decomposition, with an internal event between them, in the
// canonical (proc, seq) order.
func dumpEvents() []obs.Event {
	return []obs.Event{
		{Node: 0, Proc: 0, Peer: 1, Seq: 0, Phase: obs.PhaseSyn, Stamp: vector.V{0}},
		{Node: 0, Proc: 0, Peer: 1, Seq: 1, Phase: obs.PhaseAdopt, Stamp: vector.V{1}},
		{Node: 0, Proc: 0, Peer: 1, Seq: 2, Phase: obs.PhaseSyn, Stamp: vector.V{1}},
		{Node: 0, Proc: 0, Peer: 1, Seq: 3, Phase: obs.PhaseAdopt, Stamp: vector.V{2}},
		{Node: 1, Proc: 1, Peer: 0, Seq: 0, Phase: obs.PhaseMerge, Stamp: vector.V{1}},
		{Node: 1, Proc: 1, Peer: 0, Seq: 1, Phase: obs.PhaseAck, Stamp: vector.V{1}},
		{Node: 1, Proc: 1, Peer: -1, Seq: 2, Phase: obs.PhaseInternal, Stamp: vector.V{1}, Note: "checkpoint"},
		{Node: 1, Proc: 1, Peer: 0, Seq: 3, Phase: obs.PhaseMerge, Stamp: vector.V{2}},
		{Node: 1, Proc: 1, Peer: 0, Seq: 4, Phase: obs.PhaseAck, Stamp: vector.V{2}},
	}
}

// TestFlightDumpRoundTrip pins the event file's events: write, read, equal —
// node ids, notes and seqs included, read back in flight order.
func TestFlightDumpRoundTrip(t *testing.T) {
	events := dumpEvents()
	path := filepath.Join(t.TempDir(), "node.events")
	if err := WriteFlightDump(path, DumpMeta{Node: 1, Dec: decomp.Approximate(graph.Path(2))}, events); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file survived the publish: %v", err)
	}
	if !reflect.DeepEqual(events, dumpEvents()) {
		t.Errorf("WriteFlightDump reordered its argument")
	}
	_, got, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flight order: stamp sum, then proc, then seq.
	var want []obs.Event
	for _, i := range []int{0, 1, 2, 4, 5, 6, 3, 7, 8} {
		want = append(want, events[i])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n%+v\nwant\n%+v", got, want)
	}
}

// TestEventFileMetaRoundTrip pins the event file's meta record: the
// emitting node, the decomposition (and with it N and d) and the frame
// table over every frame kind come back as written, alongside the events.
func TestEventFileMetaRoundTrip(t *testing.T) {
	dec := decomp.Figure3a()
	meta := DumpMeta{Node: 2, Dec: dec}
	for k := range wire.KindMax {
		meta.Frames.Frames[k], meta.Frames.Bytes[k] = int(k)+1, 40*(int(k)+1)
	}
	events := []obs.Event{
		{Node: 2, Proc: 2, Peer: 4, Seq: 0, Phase: obs.PhaseSyn, Stamp: vector.V{0, 0, 0}},
		{Node: 2, Proc: 2, Peer: 4, Seq: 1, Phase: obs.PhaseAdopt, Stamp: vector.V{0, 0, 1}},
		{Node: 2, Proc: 4, Peer: -1, Seq: 0, Phase: obs.PhaseInternal, Stamp: vector.V{0, 0, 0}, Note: "checkpoint"},
		{Node: 2, Proc: 4, Peer: 2, Seq: 1, Phase: obs.PhaseMerge, Stamp: vector.V{0, 0, 1}},
		{Node: 2, Proc: 4, Peer: 2, Seq: 2, Phase: obs.PhaseAck, Stamp: vector.V{0, 0, 1}},
	}
	path := filepath.Join(t.TempDir(), "node.events")
	if err := WriteFlightDump(path, meta, events); err != nil {
		t.Fatal(err)
	}
	gotMeta, got, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Node != 2 || gotMeta.Frames != meta.Frames {
		t.Errorf("meta round trip: node %d, frames %+v; want node 2, frames %+v", gotMeta.Node, gotMeta.Frames, meta.Frames)
	}
	if gotMeta.Dec.N() != dec.N() || gotMeta.Dec.D() != dec.D() || gotMeta.Dec.String() != dec.String() {
		t.Errorf("decomposition round trip: n=%d d=%d %v; want n=%d d=%d %v",
			gotMeta.Dec.N(), gotMeta.Dec.D(), gotMeta.Dec, dec.N(), dec.D(), dec)
	}
	want := slices.Clone(events)
	obs.SortFlight(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events:\n%+v\nwant\n%+v", got, want)
	}
}

// TestEventFileByteIdenticalAcrossInterleavings records the same events in
// two interleavings, one recorder keeping every event and one a flight
// ring, and requires byte-identical event files — the contract that makes
// tsnode's -obs-trace file and its end-of-run -flight-dump one file.
func TestEventFileByteIdenticalAcrossInterleavings(t *testing.T) {
	events := dumpEvents()
	all, ring := obs.NewRecorder(0), obs.NewRecorder(16, 0, 1)
	for _, e := range events {
		all.Record(e)
	}
	for _, e := range append(slices.Clone(events[4:]), events[:4]...) { // process 1 first
		ring.Record(e)
	}
	meta := DumpMeta{Node: -1, Dec: decomp.Approximate(graph.Path(2))}
	dir := t.TempDir()
	var files [2][]byte
	for i, r := range []*obs.Recorder{all, ring} {
		path := filepath.Join(dir, "run.events")
		if err := WriteFlightDump(path, meta, r.Events()); err != nil {
			t.Fatal(err)
		}
		var err error
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("event files differ across interleavings:\n%x\n%x", files[0], files[1])
	}
}

// TestReadFlightDumpErrors feeds the reader files it must refuse, each
// with the reason it must give. TestMalformedTraces in cmd/tsanalyze covers
// the per-event peer and stamp checks through both subcommands.
func TestReadFlightDumpErrors(t *testing.T) {
	var dec strings.Builder
	if err := decomp.WriteText(&dec, decomp.Approximate(graph.Path(2))); err != nil {
		t.Fatal(err)
	}
	meta := JournalRecord{Kind: journalMeta, Stamp: make(vector.V, 2*wire.KindMax), Note: dec.String()}
	syn := JournalRecord{Kind: flightSyn, Proc: 0, Peer: 1, Stamp: vector.V{0}}
	with := func(f func(*JournalRecord)) JournalRecord {
		r := syn
		f(&r)
		return r
	}
	cases := []struct {
		name    string
		recs    []JournalRecord
		wantErr string
	}{
		{"empty", nil, "no meta record first"},
		{"no-meta", []JournalRecord{syn}, "no meta record first"},
		{"event-first", []JournalRecord{syn, meta}, "no meta record first"},
		{"duplicate-meta", []JournalRecord{meta, meta}, "record 1: a second meta record"},
		{"unknown-kind", []JournalRecord{meta, with(func(r *JournalRecord) { r.Kind = journalSend })}, "record 1: kind 1 is no event phase"},
		{"bad-phase", []JournalRecord{meta, with(func(r *JournalRecord) { r.Kind = journalRecv })}, "record 1: kind 2 is no event phase"},
		{"proc-range", []JournalRecord{meta, with(func(r *JournalRecord) { r.Proc = 9 })}, "process 9 out of range [0,2)"},
		{"duplicate-seq", []JournalRecord{meta, syn, syn}, "process 0's seq 0 appears twice"},
		{"seq-gap", []JournalRecord{meta, syn, with(func(r *JournalRecord) { r.Seq = 2 })}, "process 0 lacks seq 1"},
		{"bad-meta", []JournalRecord{{Kind: journalMeta, Stamp: meta.Stamp}}, "meta record"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.events")
			if err := os.WriteFile(path, append([]byte(journalMagic), encodeRecords(t, tc.recs)...), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := ReadFlightDump(path)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
	t.Run("bad-json", func(t *testing.T) {
		// The retired line-oriented text trace is not an event file.
		path := filepath.Join(t.TempDir(), "run.trace")
		text := `{"k":"meta","version":1,"node":0,"n":2,"d":1,"dec":"n 2\nstar 0 0 1\n"}` + "\n" +
			`{"k":"ev","t":0,"node":0,"proc":0,"seq":0,"phase":"syn","peer":1,"stamp":[0]}` + "\n"
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFlightDump(path); err == nil || !strings.Contains(err.Error(), "not a journal") {
			t.Fatalf("got %v, want a refusal of the foreign file", err)
		}
	})
}

// TestFlightDumpRefusesWrappedRing runs a 2-node cluster whose flight rings
// are far smaller than the run. The end-of-run dumps then hold only each
// process's tail, and the reader must refuse them, naming the process and
// its first held seq, rather than hand a partial history to an analysis.
func TestFlightDumpRefusesWrappedRing(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	dir := t.TempDir()
	transports := loopTransports(2)
	programs := pingPong(5) // 20 events per process
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := New(Config{
				Node: i, Placement: []int{0, 1}, Dec: dec,
				FlightRecorder: 6,
				FlightDump:     filepath.Join(dir, "flight"+string(rune('0'+i))+".events"),
			}, transports[i])
			if err != nil {
				errs[i] = err
				return
			}
			defer n.Close()
			_, errs[i] = n.Run(programs)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		_, _, err := ReadFlightDump(filepath.Join(dir, "flight"+string(rune('0'+i))+".events"))
		want := "process " + string(rune('0'+i)) + "'s events start at seq 14"
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "-obs-trace") {
			t.Fatalf("node %d's wrapped dump: got %v, want an error containing %q and pointing to -obs-trace", i, err, want)
		}
	}
}
