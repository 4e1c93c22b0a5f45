package node

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.journal")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || j.Restarts() != 0 {
		t.Fatalf("fresh journal replayed %d records, %d restarts", len(recs), j.Restarts())
	}
	want := []JournalRecord{
		{Kind: journalRecv, Proc: 1, Peer: 0, Seq: 1, Stamp: []int{1, 0}},
		{Kind: journalSend, Proc: 1, Peer: 0, Seq: 1, Stamp: []int{1, 1}},
		{Kind: journalInternal, Proc: 1, Note: "checkpoint"},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// First reopen: the three records come back and a restart is counted.
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Kind != want[i].Kind || rec.Proc != want[i].Proc || rec.Seq != want[i].Seq {
			t.Fatalf("record %d: got %+v, want %+v", i, rec, want[i])
		}
	}
	if j2.Restarts() != 1 {
		t.Fatalf("restarts after first reopen = %d, want 1", j2.Restarts())
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second reopen: restart markers accumulate across incarnations.
	j3, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Restarts() != 2 {
		t.Fatalf("restarts after second reopen = %d, want 2", j3.Restarts())
	}
}

// TestJournalTruncatedTailIgnored tears a journal's final record — cut at
// every byte offset, the shape a crash mid-append leaves, and flipped so its
// checksum fails — and requires replay to cut back to the complete-record
// prefix. A file cut inside its magic, a crash during creation, must open
// as a fresh journal.
func TestJournalTruncatedTailIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	last := JournalRecord{Kind: journalSend, Proc: 0, Peer: 1, Seq: 2, Stamp: []int{2, 1}}
	for _, rec := range []JournalRecord{{Kind: journalRecv, Proc: 0, Peer: 1, Seq: 1, Stamp: []int{1, 0}}, last} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkTornTail(t, raw, lastRecordStart(t, raw, last), 1)

	for cut := 0; cut < len(journalMagic); cut++ {
		path := filepath.Join(dir, "created.journal")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("file cut inside the magic at %d: %v", cut, err)
		}
		restarts := j.Restarts()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 || restarts != 0 {
			t.Fatalf("file cut inside the magic at %d replayed %d records and %d restarts, want a fresh journal", cut, len(recs), restarts)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != journalMagic {
			t.Fatalf("fresh journal holds %q (%v), want just the magic", got, err)
		}
	}
}

// TestJournalTornGroupBatchRecovery crashes a group-committed journal in
// the worst place: a multi-record batch goes out in one write, and the
// "crash" tears the batch's final record. Recovery must keep exactly the
// complete-record prefix — every record before the tear — and the journal
// must keep working from the restored boundary.
func TestJournalTornGroupBatchRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.journal")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	// Concurrent appenders so the group-commit leader actually pools
	// records: while one fsync is in flight the rest queue behind it and
	// land together in a single multi-record write.
	const appenders = 8
	const perAppender = 4
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				rec := JournalRecord{Kind: journalSend, Proc: a, Peer: 0,
					Seq: uint64(i + 1), Stamp: []int{a, i}}
				if err := j.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	st := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	const total = appenders * perAppender
	if st.Appends != total {
		t.Fatalf("journal counted %d appends, want %d", st.Appends, total)
	}
	if st.Syncs >= st.Appends {
		t.Fatalf("%d fsyncs for %d concurrent appends: group commit never batched", st.Syncs, st.Appends)
	}

	// Tear the batch's final record at every byte offset, and separately
	// flip a payload byte so its checksum fails: the shapes a power cut
	// leaves when it lands inside a batch write.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	all, good, err := decodeJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if good != len(raw) || len(all) != total {
		t.Fatalf("journal of %d bytes decodes %d records in %d bytes, want %d records end to end", len(raw), len(all), good, total)
	}
	checkTornTail(t, raw, lastRecordStart(t, raw, all[total-1]), total-1)
}

// TestJournalRestoreResume journals a full run, then rebuilds a fresh node
// from the replayed records and checks Restore reproduces the per-process
// clocks, logs, and sequence counters the crashed incarnation held.
func TestJournalRestoreResume(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	dir := t.TempDir()
	journals := make([]*Journal, 2)
	for i := range journals {
		j, recs, err := OpenJournal(filepath.Join(dir, "n"+string(rune('0'+i))+".journal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("fresh journal %d not empty", i)
		}
		journals[i] = j
	}
	const rounds = 5
	transports := loopTransports(2)
	results := make([]clusterResult, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := New(Config{
				Node: i, Placement: []int{0, 1}, Dec: dec,
				Recovery: &RecoveryConfig{OnPeerLoss: PeerLossWait, Journal: journals[i]},
			}, transports[i])
			if err != nil {
				results[i].err = err
				return
			}
			defer n.Close()
			info, err := n.Run(pingPong(rounds))
			results[i] = clusterResult{info: info, err: err}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
		if err := journals[i].Close(); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart" node 1: replay its journal into a fresh node.
	j, recs, err := OpenJournal(filepath.Join(dir, "n1.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", j.Restarts())
	}
	wantOps := 2 * rounds // each round is one recv + one send on proc 1
	if len(recs) != wantOps {
		t.Fatalf("journal replayed %d records, want %d", len(recs), wantOps)
	}
	l := NewLoop(2)
	n, err := New(Config{
		Node: 1, Placement: []int{0, 1}, Dec: dec,
		Recovery: &RecoveryConfig{OnPeerLoss: PeerLossWait, Journal: j},
	}, l.Transport(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	counts, err := n.Restore(recs)
	if err != nil {
		t.Fatal(err)
	}
	if counts[1] != wantOps {
		t.Fatalf("Restore counts = %v, want %d ops for process 1", counts, wantOps)
	}
	st := n.restored[1]
	if st == nil {
		t.Fatal("no resume state for process 1")
	}
	if len(st.log) != wantOps || st.seq != rounds {
		t.Fatalf("resume state: %d log records (want %d), seq %d (want %d)",
			len(st.log), wantOps, st.seq, rounds)
	}
	// The rebuilt log must equal the live run's, stamp for stamp, and the
	// rebuilt clock must sit exactly at the last committed stamp.
	live := results[1].info.Logs[1]
	if len(live) != len(st.log) {
		t.Fatalf("restored %d log records, live run had %d", len(st.log), len(live))
	}
	for i := range live {
		if live[i].Kind != st.log[i].Kind || live[i].Peer != st.log[i].Peer {
			t.Fatalf("log record %d: restored %+v, live %+v", i, st.log[i], live[i])
		}
		if live[i].Kind != core.RecordInternal && !vector.Eq(live[i].Stamp, st.log[i].Stamp) {
			t.Fatalf("log record %d: restored stamp %v, live %v", i, st.log[i].Stamp, live[i].Stamp)
		}
	}
	// Dial epochs stride past everything the previous incarnation used.
	n.mu.Lock()
	base := n.baseEpoch
	n.mu.Unlock()
	if base != 1<<16 {
		t.Fatalf("baseEpoch = %d, want %d", base, 1<<16)
	}
}

// TestOneNodeRestore journals a run on a node that hosts every process,
// which builds no per-peer table, then restores the journal into a fresh
// one-node node: a Run with nothing left to do returns the committed logs.
func TestOneNodeRestore(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	path := filepath.Join(t.TempDir(), "one.journal")
	run := func(programs map[int]func(*Process) error) (*RunInfo, map[int]int) {
		t.Helper()
		j, recs, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		n, err := New(Config{Placement: []int{0, 0}, Dec: dec, Recovery: &RecoveryConfig{Journal: j}}, NewLoop(1).Transport(0))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		counts, err := n.Restore(recs)
		if err != nil {
			t.Fatal(err)
		}
		info, err := n.Run(programs)
		if err != nil {
			t.Fatal(err)
		}
		return info, counts
	}
	const rounds = 3
	live, _ := run(pingPong(rounds))
	restored, counts := run(nil)
	for p := 0; p < 2; p++ {
		if counts[p] != 2*rounds {
			t.Fatalf("process %d resumed %d operations, want %d", p, counts[p], 2*rounds)
		}
		got, want := restored.Logs[p], live.Logs[p]
		if len(got) != len(want) {
			t.Fatalf("process %d: restored %d records, the run logged %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i].Kind != want[i].Kind || got[i].Peer != want[i].Peer || !vector.Eq(got[i].Stamp, want[i].Stamp) {
				t.Fatalf("process %d record %d: restored %+v, logged %+v", p, i, got[i], want[i])
			}
		}
	}
}

// TestRestoreRejectsForeignProcess: a journal record must name a process
// of the decomposition that this node hosts. A process placed on another
// node is refused, and so is a one-node run's Join slot past Dec.N(), which
// has no clock to restore (it used to panic in core.NewClock).
func TestRestoreRejectsForeignProcess(t *testing.T) {
	dec := decomp.Best(graph.Path(2))
	cases := []struct {
		name      string
		node      int
		placement []int
		rec       JournalRecord
	}{
		{"other node", 1, []int{0, 1}, JournalRecord{Kind: journalRecv, Proc: 0, Peer: 1, Seq: 1, Stamp: []int{1, 0}}},
		{"join slot", 0, []int{0, 0, 0}, JournalRecord{Kind: journalInternal, Proc: 2, Note: "joined"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j, _, err := OpenJournal(filepath.Join(t.TempDir(), "node.journal"))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			n, err := New(Config{
				Node: tc.node, Placement: tc.placement, Dec: dec,
				Recovery: &RecoveryConfig{OnPeerLoss: PeerLossWait, Journal: j},
			}, NewLoop(2).Transport(tc.node))
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			_, err = n.Restore([]JournalRecord{tc.rec})
			if err == nil || !strings.Contains(err.Error(), "not hosted here") {
				t.Fatalf("journal record for process %d accepted: %v", tc.rec.Proc, err)
			}
		})
	}
}

// TestDedupCacheReusesStamp pins the receiver's merge cache: once warm, a
// committed merge from a remote sender is copied into the cached vector
// without allocating, and a re-ACK built from the cache owns its vector, so
// a later merge from the same sender cannot change a re-ACK that is still
// waiting to be sent.
func TestDedupCacheReusesStamp(t *testing.T) {
	dec := decomp.Best(graph.Path(2))
	l := NewLoop(2)
	n, err := New(Config{
		Node: 1, Placement: []int{0, 1}, Dec: dec,
		Recovery: &RecoveryConfig{OnPeerLoss: PeerLossWait},
	}, l.Transport(1))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	first := vector.New(dec.D())
	first[0] = 1
	n.noteMerged(0, 1, 1, first)
	reack, deliver := n.dedupCheck(&wire.Frame{Kind: wire.KindSyn, From: 0, To: 1, Seq: 1, Vec: first})
	if deliver || reack == nil {
		t.Fatalf("retransmitted SYN: deliver=%v reack=%v, want a re-ACK from the cache", deliver, reack)
	}
	second := first.Clone()
	second[0] = 2
	n.noteMerged(0, 2, 1, second)
	if !vector.Eq(reack.Vec, first) {
		t.Fatalf("re-ACK vector changed to %v by a later merge, want %v", reack.Vec, first)
	}
	if allocs := testing.AllocsPerRun(100, func() { n.noteMerged(0, 3, 1, second) }); allocs != 0 {
		t.Fatalf("warm noteMerged allocates %.1f objects, want 0", allocs)
	}
}

// fakePeer plays node 1 of a two-node run against a real node 0 over l: it
// dials node 0 (higher dials lower), exchanges HELLOs, hands the raw codec
// pair to script, and reports script's error on the returned channel.
func fakePeer(l *Loop, dec *decomp.Decomposition, placement []int,
	script func(enc *wire.Encoder, wdec *wire.Decoder) error) <-chan error {
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			c, err := l.Transport(1).Dial(0, time.Now().Add(5*time.Second))
			if err != nil {
				return err
			}
			defer c.Close()
			enc := wire.NewEncoder(c, dec.D())
			wdec := wire.NewDecoder(c, dec.D())
			digest := wire.Digest(dec, placement)
			if err := enc.Encode(&wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: 1, Procs: []int{1}, Digest: digest}); err != nil {
				return err
			}
			if _, err := wdec.Decode(); err != nil { // node 0's HELLO reply
				return err
			}
			return script(enc, wdec)
		}()
	}()
	return done
}

// answerSyn reads process 0's next SYN and merges it into clock, the
// Figure 5 receive of fake process 1.
func answerSyn(wdec *wire.Decoder, clock *core.Clock) (seq uint64, stamp vector.V, err error) {
	f, err := wdec.Decode()
	if err != nil {
		return 0, nil, err
	}
	if f.Kind != wire.KindSyn {
		return 0, nil, fmt.Errorf("read %v, want SYN", f.Kind)
	}
	stamp, err = clock.Merge(f.Vec, 0)
	return f.Seq, stamp, err
}

// TestLateAckAndUnexpectedKindsCounted drives node 0 against a hand-rolled
// wire peer that misbehaves before cooperating: an unsolicited ACK no sender
// is parked for and an INTERNAL frame on the data stream. Both must be
// counted and discarded — not kill the run — and the genuine rendezvous that
// follows must still complete.
func TestLateAckAndUnexpectedKindsCounted(t *testing.T) {
	leakCheck(t)
	g := graph.Path(2)
	dec := decomp.Best(g)
	placement := []int{0, 1}
	l := NewLoop(2)
	o := obs.New()

	n, err := New(Config{Node: 0, Placement: placement, Dec: dec, Obs: o}, l.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	peerErr := fakePeer(l, dec, placement, func(enc *wire.Encoder, wdec *wire.Decoder) error {
		// Misbehave: a late ACK (no waiter is parked for seq 99) and an
		// INTERNAL frame, which never belongs on a data stream.
		if err := enc.Encode(&wire.Frame{Kind: wire.KindAck, From: 1, To: 0, Seq: 99, Vec: core.NewClock(1, dec).Current()}); err != nil {
			return err
		}
		if err := enc.Encode(&wire.Frame{Kind: wire.KindInternal, Node: 1, Vec: core.NewClock(1, dec).Current()}); err != nil {
			return err
		}
		// Now cooperate: answer proc 0's SYN with the Figure 5 merge.
		seq, stamp, err := answerSyn(wdec, core.NewClock(1, dec))
		if err != nil {
			return err
		}
		if err := enc.Encode(&wire.Frame{Kind: wire.KindAck, From: 1, To: 0, Seq: seq, Vec: stamp}); err != nil {
			return err
		}
		if err := enc.Encode(&wire.Frame{Kind: wire.KindBye}); err != nil {
			return err
		}
		_, _ = wdec.Decode() // node 0's BYE
		return nil
	})

	info, err := n.Run(map[int]func(*Process) error{
		0: func(p *Process) error {
			_, err := p.Send(1)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("fake peer: %v", err)
	}
	if info.Dropped != 2 {
		t.Fatalf("info.Dropped = %d, want 2 (late ACK + INTERNAL frame)", info.Dropped)
	}
	if got := o.Registry().Counter(obs.MetricDroppedFrames).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", obs.MetricDroppedFrames, got)
	}
}

// TestDuplicateAckNeverAnswersNextSend has the fake peer answer SYN 1 with
// its ACK twice before answering SYN 2 with a later stamp. The read loop
// clears a sender's registration when it takes the ACK, so the duplicate
// must be counted as dropped, and the second Send must return ACK 2's stamp
// rather than the duplicate's.
func TestDuplicateAckNeverAnswersNextSend(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	placement := []int{0, 1}
	l := NewLoop(2)
	n, err := New(Config{Node: 0, Placement: placement, Dec: dec}, l.Transport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	acked := make(chan vector.V, 2)
	peerErr := fakePeer(l, dec, placement, func(enc *wire.Encoder, wdec *wire.Decoder) error {
		clock := core.NewClock(1, dec)
		for syn := 1; syn <= 2; syn++ {
			seq, stamp, err := answerSyn(wdec, clock)
			if err != nil {
				return err
			}
			copies := 1
			if syn == 1 {
				copies = 2
			}
			for i := 0; i < copies; i++ {
				if err := enc.Encode(&wire.Frame{Kind: wire.KindAck, From: 1, To: 0, Seq: seq, Vec: stamp}); err != nil {
					return err
				}
			}
			acked <- stamp
		}
		if err := enc.Encode(&wire.Frame{Kind: wire.KindBye}); err != nil {
			return err
		}
		_, _ = wdec.Decode() // node 0's BYE
		return nil
	})

	var got [2]vector.V
	info, err := n.Run(map[int]func(*Process) error{
		0: func(p *Process) error {
			for i := range got {
				stamp, err := p.Send(1)
				if err != nil {
					return err
				}
				got[i] = stamp
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("fake peer: %v", err)
	}
	for i := range got {
		if want := <-acked; !vector.Eq(got[i], want) {
			t.Fatalf("send %d returned %v, want ACK %d's stamp %v", i+1, got[i], i+1, want)
		}
	}
	if info.Dropped != 1 {
		t.Fatalf("info.Dropped = %d, want 1 (the duplicate ACK)", info.Dropped)
	}
}

// TestDialClassification checks TCPTransport.Dial's fatal-vs-transient
// split: a malformed address fails immediately instead of burning the
// deadline, while a refused port retries (counting each retry) until the
// deadline expires.
func TestDialClassification(t *testing.T) {
	tr := &TCPTransport{Retries: &obs.Counter{}}

	// Malformed port: net.AddrError, fatal, returns well before the deadline.
	tr.SetPeers([]string{"127.0.0.1:notaport"})
	start := time.Now()
	_, err := tr.Dial(0, time.Now().Add(5*time.Second))
	if err == nil {
		t.Fatal("malformed address dialed successfully")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fatal dial burned %v of the deadline", elapsed)
	}
	if got := tr.Retries.Value(); got != 0 {
		t.Fatalf("fatal dial counted %d retries, want 0", got)
	}

	// A refused port is transient: retried with backoff until the deadline.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // nothing listens here anymore
	tr.SetPeers([]string{addr})
	_, err = tr.Dial(0, time.Now().Add(300*time.Millisecond))
	if err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("refused dial classified fatal: %v", err)
	}
	if got := tr.Retries.Value(); got == 0 {
		t.Fatal("refused dial counted no retries")
	}

	// Out-of-range peer index is immediately fatal.
	if _, err := tr.Dial(7, time.Now().Add(time.Second)); err == nil {
		t.Fatal("out-of-range dial succeeded")
	}
}

// TestRedialEndsWithWindow kills node 0 of three over TCP under
// PeerLossExclude. Both survivors redial it (higher dials lower), and
// the 300 ms reconnect window must bound each redial: a receive parked on
// node 0 returns ErrPeerLost when the window ends, not when a redial's 5 s
// handshake timeout does.
func TestRedialEndsWithWindow(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Star(3, 0))
	ts := tcpTransports(t, 3)
	nodes := make([]*Node, 3)
	for i := range nodes {
		n, err := New(Config{Node: i, Placement: []int{0, 1, 2}, Dec: dec, HandshakeTimeout: 5 * time.Second,
			Recovery: &RecoveryConfig{OnPeerLoss: PeerLossExclude, ReconnectWindow: 300 * time.Millisecond}}, ts[i])
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	var started, wg sync.WaitGroup
	started.Add(3)
	lostAt := make([]time.Time, 3)
	errs := make([]error, 3)
	for i, n := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = n.Run(map[int]func(*Process) error{i: func(p *Process) error {
				started.Done()
				if i == 0 {
					_, err := p.RecvFrom(1) // parks until the kill
					return err
				}
				_, err := p.RecvFrom(0)
				lostAt[i] = time.Now()
				if !errors.Is(err, ErrPeerLost) {
					return fmt.Errorf("RecvFrom(0) = %v, want ErrPeerLost", err)
				}
				return nil
			}})
		}()
	}
	started.Wait()
	killed := time.Now()
	nodes[0].Stop() // the "kill": connections and listener drop without a BYE
	wg.Wait()
	for i := 1; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if d := lostAt[i].Sub(killed); d > 2*time.Second {
			t.Errorf("node %d: ErrPeerLost %v after the kill, want about the 300ms window", i, d)
		}
	}
}

// TestRedialEndsOnStop kills node 0 of two over TCP under PeerLossWait,
// then fails node 1's program while node 1 still redials inside its 5 s
// window. The failure stops the node, and Stop must end the redial: Close
// returns with the failed run, not at the redial's handshake timeout.
func TestRedialEndsOnStop(t *testing.T) {
	leakCheck(t)
	dec := decomp.Best(graph.Path(2))
	ts := tcpTransports(t, 2)
	cfg := Config{Placement: []int{0, 1}, Dec: dec, HandshakeTimeout: 5 * time.Second,
		Recovery: &RecoveryConfig{OnPeerLoss: PeerLossWait}}
	n0, err := New(cfg, ts[0])
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	cfg.Node = 1
	n1, err := New(cfg, ts[1])
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	n0done := make(chan struct{})
	go func() {
		defer close(n0done)
		_, _ = n0.Run(map[int]func(*Process) error{0: func(p *Process) error {
			close(started)
			_, err := p.RecvFrom(1) // parks until the kill
			return err
		}})
	}()
	go func() {
		<-started
		time.Sleep(50 * time.Millisecond)
		n0.Stop() // the "kill": connections and listener drop without a BYE
	}()
	failed := errors.New("program failed")
	start := time.Now()
	_, err = n1.Run(map[int]func(*Process) error{1: func(p *Process) error {
		time.Sleep(300 * time.Millisecond)
		return failed
	}})
	n1.Close()
	elapsed := time.Since(start)
	<-n0done
	if !errors.Is(err, failed) {
		t.Fatalf("node 1's run returned %v, want its program's failure", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("node 1's Close returned %v after its Run started, want about the program's 300ms", elapsed)
	}
}
