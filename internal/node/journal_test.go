package node

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// sampleRecords covers every field shape the record codec must round-trip:
// journal and flight-dump kinds, a restart marker, negative peers, empty
// and multi-byte stamp components, notes and node ids.
func sampleRecords() []JournalRecord {
	return []JournalRecord{
		{Kind: journalRecv, Proc: 1, Peer: 0, Seq: 1, Stamp: vector.V{1, 0}},
		{Kind: journalSend, Proc: 1, Peer: 0, Seq: 300, Stamp: vector.V{1, 1 << 20}},
		{Kind: journalInternal, Proc: 1, Note: "checkpoint"},
		{Kind: journalRestart},
		{Kind: flightSyn, Node: 2, Proc: 5, Peer: 4, Seq: 7, Stamp: vector.V{3, 0, 9}},
		{Kind: journalInternal, Node: 2, Proc: 5, Peer: -1, Seq: 8, Stamp: vector.V{3, 0, 10}, Note: "drained"},
	}
}

// encodeRecords encodes recs back to back, as a journal lays them out
// after its magic.
func encodeRecords(tb testing.TB, recs []JournalRecord) []byte {
	tb.Helper()
	var b []byte
	for i := range recs {
		var err error
		if b, err = appendRecord(b, &recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// lastRecordStart returns the offset at which the journal image raw's final
// record, last, begins, checking that raw really ends with last's encoding.
func lastRecordStart(t *testing.T, raw []byte, last JournalRecord) int {
	t.Helper()
	enc := encodeRecords(t, []JournalRecord{last})
	if !bytes.HasSuffix(raw, enc) {
		t.Fatalf("journal does not end with the encoding of %+v", last)
	}
	return len(raw) - len(enc)
}

// tornImages damages the journal image raw in its final record, which
// starts at lastStart: cut at every offset from the record's start to one
// byte short of its end, and whole but with its last payload byte (the one
// before the checksum) flipped.
func tornImages(raw []byte, lastStart int) [][]byte {
	var images [][]byte
	for cut := lastStart; cut < len(raw); cut++ {
		images = append(images, raw[:cut])
	}
	flipped := bytes.Clone(raw)
	flipped[len(flipped)-5] ^= 0xff
	return append(images, flipped)
}

// checkTornTail opens every torn image of raw (see tornImages) as a
// journal: each must replay exactly the want (> 0) records before the
// damaged one and count one restart, and an append after the replay must
// survive a further replay.
func checkTornTail(t *testing.T, raw []byte, lastStart, want int) {
	t.Helper()
	dir := t.TempDir()
	for i, img := range tornImages(raw, lastStart) {
		path := filepath.Join(dir, fmt.Sprintf("torn-%d.journal", i))
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("image %d (%d of %d bytes): %v", i, len(img), len(raw), err)
		}
		if len(recs) != want || j.Restarts() != 1 {
			_ = j.Close()
			t.Fatalf("image %d (%d of %d bytes) replayed %d records and %d restarts, want the %d-record complete prefix and 1", i, len(img), len(raw), len(recs), j.Restarts(), want)
		}
		if err := j.Append(JournalRecord{Kind: journalInternal, Proc: 0, Note: "after tear"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, recs, err = OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if len(recs) != want+1 || recs[want].Note != "after tear" {
			t.Fatalf("image %d: after tear+append replayed %d records, want %d ending in the post-tear append", i, len(recs), want+1)
		}
	}
}

// TestOpenJournalRejectsForeignFile points the journal at files that are
// not journals — one in the retired JSONL format and a plain-text file with
// no newline, the shapes a mistyped -journal path hits. Each must be
// refused, by OpenJournal and by the read-only readers, and left
// byte-identical.
func TestOpenJournalRejectsForeignFile(t *testing.T) {
	foreign := []struct{ name, content string }{
		{"jsonl journal", `{"kind":"recv","proc":0,"peer":1,"seq":1,"stamp":[1,0]}` + "\n" + `{"kind":"restart","proc":0}` + "\n"},
		{"plain text", "remember to rotate the keys"},
	}
	for _, tc := range foreign {
		path := filepath.Join(t.TempDir(), "node.journal")
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if j, _, err := OpenJournal(path); err == nil {
			_ = j.Close()
			t.Errorf("%s: OpenJournal accepted it", tc.name)
		}
		if _, _, err := ReadFlightDump(path); err == nil {
			t.Errorf("%s: ReadFlightDump accepted it", tc.name)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.content {
			t.Errorf("%s: the refused file changed to %q", tc.name, got)
		}
	}
}

// FuzzJournalReplay throws arbitrary bytes after the magic at replay, and
// the same bytes framed as one checksum-valid record at the payload
// decoder. Replay must never panic, and re-encoding the records it returns
// must reproduce exactly the bytes it kept.
func FuzzJournalReplay(f *testing.F) {
	img := encodeRecords(f, sampleRecords())
	f.Add(img)
	f.Add(img[:len(img)-3])
	f.Add(make([]byte, 16)) // the zero fill a crash can leave past the last fsync
	// An event file's body: the meta record, then events.
	f.Add(encodeRecords(f, []JournalRecord{
		{Kind: journalMeta, Node: 1, Stamp: make(vector.V, 2*wire.KindMax), Note: "n 2\nstar 0 0 1\n"},
		{Kind: flightMerge, Node: 1, Proc: 1, Peer: 0, Stamp: vector.V{1}},
		{Kind: journalInternal, Node: 1, Proc: 1, Peer: -1, Seq: 1, Stamp: vector.V{1}, Note: "done"},
	}))
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, good, err := decodeJournal(append([]byte(journalMagic), body...))
		if err != nil {
			t.Fatalf("an image opening with the magic was refused: %v", err)
		}
		if kept := body[:good-len(journalMagic)]; !bytes.Equal(encodeRecords(t, recs), kept) {
			t.Fatalf("%d replayed records re-encode to other bytes than the %d replay kept", len(recs), len(kept))
		}
		framed := frameRecord(bytes.Clone(body), 0)
		recs, good = parseRecords(framed)
		if good != 0 && good != len(framed) {
			t.Fatalf("one frame of %d bytes replayed as %d bytes", len(framed), good)
		}
		if !bytes.Equal(encodeRecords(t, recs), framed[:good]) {
			t.Fatalf("payload %x decodes to %+v, which re-encodes differently", body, recs)
		}
	})
}
