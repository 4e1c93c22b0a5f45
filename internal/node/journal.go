package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"

	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
)

// Journal record kinds.
const (
	journalSend     = "send"
	journalRecv     = "recv"
	journalInternal = "internal"
	journalRestart  = "restart"
)

// recordKinds is the closed table of record kinds: the journal's own, then
// the obs phases a flight dump records (an internal event shares
// "internal"). A record's kind byte is its index here, so the table only
// grows at the end; byte 0 is no kind.
var recordKinds = [...]string{
	1: journalSend,
	2: journalRecv,
	3: journalInternal,
	4: journalRestart,
	5: obs.PhaseSyn.String(),
	6: obs.PhaseMerge.String(),
	7: obs.PhaseAck.String(),
	8: obs.PhaseAdopt.String(),
}

// journalMagic opens every journal file: a name, a NUL no text file
// carries, and the format version. OpenJournal refuses a non-empty file
// that does not start with it, so a mistyped path is never truncated.
const journalMagic = "SSJRNL\x00\x01"

// errNotJournal refuses a file that does not start with journalMagic.
var errNotJournal = errors.New("not a journal: the file does not start with the journal magic")

// castagnoli is the CRC-32C table of the per-record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stampSlab is how many stamp components one replay allocation holds.
const stampSlab = 4096

// JournalRecord is one committed operation in the crash-recovery journal:
// a rendezvous half (send = the sender's adopt, recv = the receiver's
// merge) or an internal event. The write-ahead discipline — a receiver
// journals before its ACK leaves the node, a sender after its adopt — plus
// the idempotent dedup/re-ACK protocol make every crash window safe: an
// operation is either in the journal (skipped on resume, its ACK
// re-answered from the dedup cache) or not (replayed from scratch, the
// peer's retransmission completing it deterministically).
type JournalRecord struct {
	// Kind names the record: send, recv, internal or restart, or in a
	// flight dump the obs phase (syn, merge, ack, adopt, internal).
	Kind  string
	Proc  int
	Peer  int
	Seq   uint64
	Stamp vector.V
	Note  string
	// Node is the hosting node, recorded by flight dumps (which may be
	// merged across nodes); the crash-recovery journal leaves it zero —
	// a journal file is per-node by construction.
	Node int
}

// Record format. A journal file is journalMagic followed by framed records,
//
//	uvarint(len(payload)) ‖ payload ‖ CRC-32C(payload), little-endian
//
// where a payload is
//
//	kind byte ‖ zigzag proc ‖ zigzag peer ‖ zigzag node ‖ uvarint seq ‖
//	uvarint len(stamp) ‖ uvarint components ‖ uvarint len(note) ‖ note
//
// with the stamp in the wire codec's dense varint form. Replay accepts only
// the shortest encoding of every varint and nothing after the note, so a
// record has exactly one encoding: re-encoding the records replay returns
// reproduces the bytes it kept.

// appendRecord appends rec, framed, to dst. On error dst is returned
// unchanged.
func appendRecord(dst []byte, rec *JournalRecord) ([]byte, error) {
	kind := kindCode(rec.Kind)
	if kind == 0 {
		return dst, fmt.Errorf("node: journal record kind %q is not in the record table", rec.Kind)
	}
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.AppendVarint(dst, int64(rec.Proc))
	dst = binary.AppendVarint(dst, int64(rec.Peer))
	dst = binary.AppendVarint(dst, int64(rec.Node))
	dst = binary.AppendUvarint(dst, rec.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Stamp)))
	for _, x := range rec.Stamp {
		dst = binary.AppendUvarint(dst, uint64(x))
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Note)))
	dst = append(dst, rec.Note...)
	return frameRecord(dst, start), nil
}

// frameRecord frames the payload occupying dst[start:]: the payload moves
// right by the width of its length varint, the length goes in front, and
// the checksum after.
func frameRecord(dst []byte, start int) []byte {
	n := len(dst) - start
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	dst = append(dst, hdr[:h]...)
	copy(dst[start+h:], dst[start:start+n])
	copy(dst[start:], hdr[:h])
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start+h:], castagnoli))
}

// kindCode returns kind's byte in recordKinds, 0 when the table lacks it.
func kindCode(kind string) byte {
	for c := 1; c < len(recordKinds); c++ {
		if recordKinds[c] == kind {
			return byte(c)
		}
	}
	return 0
}

// decodeJournal decodes a journal file image up to its first torn or
// corrupt record. It returns every complete record in file order, restart
// markers included, and the length of the complete-record prefix, magic
// included. An image that is a strict prefix of the magic — a crash during
// creation — decodes as a fresh journal of length 0; any other image that
// does not start with the magic is errNotJournal.
func decodeJournal(data []byte) ([]JournalRecord, int, error) {
	if len(data) < len(journalMagic) {
		if string(data) != journalMagic[:len(data)] {
			return nil, 0, errNotJournal
		}
		return nil, 0, nil
	}
	if string(data[:len(journalMagic)]) != journalMagic {
		return nil, 0, errNotJournal
	}
	recs, n := parseRecords(data[len(journalMagic):])
	return recs, len(journalMagic) + n, nil
}

// parseRecords decodes framed records from b up to the first torn or
// corrupt one, returning the records and the length of their prefix.
// Stamps are carved from shared slabs, so a replay allocates per slab, not
// per record.
func parseRecords(b []byte) ([]JournalRecord, int) {
	var recs []JournalRecord
	var slab []int
	good := 0
	for good < len(b) {
		rec, n, ok := parseRecord(b[good:], &slab)
		if !ok {
			break
		}
		recs = append(recs, rec)
		good += n
	}
	return recs, good
}

// parseRecord decodes the frame at the start of b, returning its record and
// length; ok is false for a torn, checksum-failing or malformed frame.
func parseRecord(b []byte, slab *[]int) (rec JournalRecord, n int, ok bool) {
	r := recordReader{b: b}
	size := r.uvarint()
	if r.bad || size > uint64(len(r.b)) || uint64(len(r.b))-size < 4 {
		return JournalRecord{}, 0, false
	}
	payload := r.b[:size]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(r.b[size:]) {
		return JournalRecord{}, 0, false
	}
	n = len(b) - len(r.b) + int(size) + 4
	r = recordReader{b: payload}
	code := r.byte()
	if r.bad || code == 0 || int(code) >= len(recordKinds) {
		return JournalRecord{}, 0, false
	}
	rec.Kind = recordKinds[code]
	rec.Proc = int(r.varint())
	rec.Peer = int(r.varint())
	rec.Node = int(r.varint())
	rec.Seq = r.uvarint()
	// Every component and note byte takes at least one payload byte, so a
	// length past the payload's end is corrupt, never an allocation.
	if d := r.uvarint(); d > 0 && d <= uint64(len(r.b)) {
		rec.Stamp = carve(slab, int(d))
		for i := range rec.Stamp {
			rec.Stamp[i] = int(r.uvarint())
		}
	} else if d > 0 {
		return JournalRecord{}, 0, false
	}
	if l := r.uvarint(); l > 0 && l <= uint64(len(r.b)) {
		rec.Note = string(r.b[:l])
		r.b = r.b[l:]
	} else if l > 0 {
		return JournalRecord{}, 0, false
	}
	if r.bad || len(r.b) != 0 {
		return JournalRecord{}, 0, false
	}
	return rec, n, true
}

// carve cuts a d-component vector from *slab, starting a new slab when it
// runs short. Each vector's capacity ends at its length, so an append to
// one never overwrites its neighbour.
func carve(slab *[]int, d int) vector.V {
	s := *slab
	if cap(s)-len(s) < d {
		s = make([]int, 0, max(d, stampSlab))
	}
	*slab = s[:len(s)+d]
	return vector.V(s[len(s) : len(s)+d : len(s)+d])
}

// recordReader walks a frame with sticky failure: a read past the end, or a
// varint longer than the shortest encoding of its value, sets bad, and
// every read after that returns zero.
type recordReader struct {
	b   []byte
	bad bool
}

func (r *recordReader) byte() byte {
	if r.bad || len(r.b) == 0 {
		r.bad = true
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *recordReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	// A padded varint ends in a zero byte; only the shortest encoding
	// re-encodes to the bytes it came from.
	if r.bad || n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return x
}

// varint reads a zigzag-encoded value, the inverse of binary.AppendVarint.
func (r *recordReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// dropRestarts splits the restart markers out of recs, in place, returning
// the operation records and the marker count.
func dropRestarts(recs []JournalRecord) ([]JournalRecord, int) {
	ops, restarts := recs[:0], 0
	for _, rec := range recs {
		if rec.Kind == journalRestart {
			restarts++
			continue
		}
		ops = append(ops, rec)
	}
	return ops, restarts
}

// readJournal replays the journal at path without modifying it — the read
// side of spill files and flight dumps — and returns its operation records.
// A torn or corrupt tail is skipped exactly as OpenJournal would cut it.
func readJournal(path string) ([]JournalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("node: read journal: %w", err)
	}
	recs, _, err := decodeJournal(data)
	if err != nil {
		return nil, fmt.Errorf("node: journal %s: %w", path, err)
	}
	ops, _ := dropRestarts(recs)
	return ops, nil
}

// Journal is an append-only file of committed operations in the binary
// record format above, safe for concurrent use by a node's process
// goroutines. The collector tree's spill shards and flight dumps are
// journals too.
//
// Commits are group-committed: concurrent Appends pool their records and a
// single leader writes and fsyncs the whole batch, so one fsync covers every
// rendezvous that reached the journal while the previous fsync was in
// flight. Append returns only after the fsync covering its record has
// completed, which is what preserves the write-ahead invariant (a merge's
// journal entry is durable before its ACK leaves the node).
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	restarts int

	// Group-commit state, guarded by mu. Records are encoded straight into
	// buf as complete frames; a crash mid-batch therefore tears at most the
	// batch's last record, which replay cuts.
	buf       []byte
	spare     []byte        // recycled batch buffer
	leader    bool          // a goroutine is mid write+fsync
	batch     int64         // batch number queued records will join
	committed int64         // highest batch number made durable
	done      chan struct{} // closed and remade after every commit
	err       error         // sticky commit failure; the journal is dead

	appends int64
	syncs   int64
}

// commitYields is how many times a group-commit leader yields the scheduler
// before taking its batch. A blocking fsync freezes the calling OS thread —
// and on a single-CPU GOMAXPROCS=1 runtime that freezes every goroutine in
// the process until the runtime's monitor rescues the P, so appends that
// would have queued behind the leader never get to run and every batch
// degenerates to size 1. Yielding first lets every runnable goroutine
// advance (senders park on ACKs, receivers merge and append), so the work
// in flight joins the batch before the world stops for the fsync. On an
// idle system Gosched returns immediately, so an uncontended Append pays
// nanoseconds, not a latency window.
const commitYields = 8

// JournalStats counts a journal's committed records and the fsyncs that
// made them durable.
type JournalStats struct {
	Appends int64 `json:"appends"`
	Syncs   int64 `json:"syncs"`
}

// Stats snapshots the journal's commit accounting.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{Appends: j.appends, Syncs: j.syncs}
}

// OpenJournal opens (creating if absent) a journal and replays it: it
// returns the committed operation records in file order, cuts a torn or
// corrupt tail (a crash mid-append leaves at most one torn batch), and — if
// the file held any prior record — appends a restart marker so Restarts
// counts this incarnation. A non-empty file that does not start with the
// journal magic is refused and left byte-identical; one that is a strict
// prefix of the magic (a crash during creation) opens as a fresh journal.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("node: open journal: %w", err)
	}
	j, recs, err := openJournal(f)
	if err != nil {
		_ = f.Close() // the open failed before any record was appended
		return nil, nil, fmt.Errorf("node: journal %s: %w", path, err)
	}
	return j, recs, nil
}

// openJournal replays f and readies it for appends.
func openJournal(f *os.File) (*Journal, []JournalRecord, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, nil, fmt.Errorf("read: %w", err)
	}
	recs, good, err := decodeJournal(data)
	if err != nil {
		return nil, nil, err
	}
	// Cut the torn tail, if any, so appends start at a record boundary. A
	// fresh file gets its magic, made durable by the first commit's fsync.
	if err := f.Truncate(int64(good)); err != nil {
		return nil, nil, fmt.Errorf("truncate: %w", err)
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("seek: %w", err)
	}
	if good == 0 {
		if _, err := f.WriteString(journalMagic); err != nil {
			return nil, nil, fmt.Errorf("write magic: %w", err)
		}
	}
	ops, restarts := dropRestarts(recs)
	// Batch numbering starts at 1 so the zero value of committed means
	// "nothing durable yet".
	j := &Journal{f: f, restarts: restarts, batch: 1, done: make(chan struct{})}
	if len(recs) > 0 {
		j.restarts++
		if err := j.Append(JournalRecord{Kind: journalRestart}); err != nil {
			return nil, nil, err
		}
	}
	return j, ops, nil
}

// Append commits one record. The record is durable when Append returns:
// either this goroutine wrote and fsynced it as the batch leader, or it
// waited for the leader whose batch carried it.
func (j *Journal) Append(rec JournalRecord) error {
	_, err := j.commit([]JournalRecord{rec})
	return err
}

// AppendBatch commits records as one segment: encoded back to back into one
// Write and made durable by the same group-commit machinery (one fsync
// covers the whole segment — the collector tree's spill path). It returns
// the bytes appended. A crash tears at most one record of the segment and
// replay cuts everything from it on, so a restored spill file is always a
// complete record prefix.
func (j *Journal) AppendBatch(recs []JournalRecord) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	return j.commit(recs)
}

// commit encodes recs straight into the pending batch, counts them, and
// returns once they are durable, with the bytes they took. A record that
// fails to encode withdraws the whole call, so a segment commits all or
// nothing.
func (j *Journal) commit(recs []JournalRecord) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, j.err
	}
	start := len(j.buf)
	for i := range recs {
		b, err := appendRecord(j.buf, &recs[i])
		if err != nil {
			j.buf = j.buf[:start]
			return 0, err
		}
		j.buf = b
	}
	size := len(j.buf) - start
	j.appends += int64(len(recs))
	mine := j.batch
	for j.committed < mine && j.err == nil {
		if !j.leader {
			// Become the leader: let the in-flight work land (see
			// commitYields), then take everything queued — our record
			// included, possibly many more — and commit it with one fsync.
			// Records arriving during the Write/Sync queue for the next batch.
			j.leader = true
			j.mu.Unlock()
			for y := 0; y < commitYields; y++ {
				runtime.Gosched()
			}
			j.mu.Lock()
			taking := j.batch
			out := j.buf
			j.buf = j.spare[:0]
			j.spare = nil
			j.batch++
			j.syncs++
			j.mu.Unlock()
			_, werr := j.f.Write(out)
			if werr == nil {
				werr = j.f.Sync()
			}
			//nolint:lockcheck hand-over-hand re-lock after the off-lock commit; released by the deferred Unlock at the top of commit
			j.mu.Lock()
			j.leader = false
			j.committed = taking
			j.spare = out[:0]
			if werr != nil && j.err == nil {
				j.err = fmt.Errorf("node: journal commit: %w", werr)
			}
			close(j.done)
			j.done = make(chan struct{})
			continue
		}
		// A leader is mid-commit; wait for it, then re-check whether its
		// batch (or a successor's) covered us.
		ch := j.done
		j.mu.Unlock()
		<-ch
		//nolint:lockcheck hand-over-hand re-lock after waiting out a leader; released by the deferred Unlock at the top of commit
		j.mu.Lock()
	}
	// A sticky error is returned even to appenders whose own batch committed
	// just before the journal died: over-reporting failure only aborts the
	// run early, never violates the durability contract.
	return size, j.err
}

// Restarts counts this journal's restart markers — how many times the node
// has been restarted over this journal file (0 for a fresh run).
func (j *Journal) Restarts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.restarts
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// resumeState is a hosted process's state rebuilt from the journal.
type resumeState struct {
	clock *core.Clock
	log   []csp.Record
	seq   uint64
	ops   int
}

// journalCommit appends one record under recovery, failing the run if the
// journal cannot be made durable (continuing would break the write-ahead
// guarantee).
func (n *Node) journalCommit(rec JournalRecord) error {
	if n.rec == nil || n.rec.Journal == nil {
		return nil
	}
	if err := n.rec.Journal.Append(rec); err != nil {
		n.fail(err)
		return err
	}
	return nil
}

// Restore rebuilds hosted-process state from a replayed journal before Run:
// per-process clocks (each committed stamp re-adopted in order, which also
// validates the journal's causal integrity), rendezvous logs, send
// sequence counters, and the receive-side dedup cache (so a peer
// retransmitting a rendezvous this node committed just before crashing is
// re-ACKed instead of merged twice). It also re-emits the committed
// operations' obs trace events, so a post-crash obs trace still carries
// the full per-process history the tsanalyze oracle needs. It returns the
// number of committed operations per hosted process — the prefix of each
// program a resuming caller must skip.
func (n *Node) Restore(recs []JournalRecord) (map[int]int, error) {
	if n.rec == nil || n.rec.Journal == nil {
		return nil, errors.New("node: Restore requires Config.Recovery with a Journal")
	}
	counts := make(map[int]int)
	for _, rec := range recs {
		if rec.Kind == journalRestart {
			continue
		}
		p := rec.Proc
		if p < 0 || p >= len(n.cfg.Placement) || n.cfg.Placement[p] != n.cfg.Node {
			return nil, fmt.Errorf("node %d: journal holds process %d, not hosted here", n.cfg.Node, p)
		}
		st := n.restored[p]
		if st == nil {
			st = &resumeState{clock: core.NewClock(p, n.cfg.Dec)}
			n.restored[p] = st
		}
		switch rec.Kind {
		case journalSend:
			if err := st.clock.Adopt(rec.Stamp, rec.Peer); err != nil {
				return nil, fmt.Errorf("node %d: journal replay, process %d send to %d: %w", n.cfg.Node, p, rec.Peer, err)
			}
			st.log = append(st.log, csp.Record{Kind: csp.RecordSend, Peer: rec.Peer, Stamp: rec.Stamp})
			if rec.Seq > st.seq {
				st.seq = rec.Seq
			}
			n.cfg.Obs.Rendezvous(n.cfg.Node, p, rec.Peer, obs.PhaseAdopt, rec.Stamp)
		case journalRecv:
			if err := st.clock.Adopt(rec.Stamp, rec.Peer); err != nil {
				return nil, fmt.Errorf("node %d: journal replay, process %d recv from %d: %w", n.cfg.Node, p, rec.Peer, err)
			}
			st.log = append(st.log, csp.Record{Kind: csp.RecordRecv, Peer: rec.Peer, Stamp: rec.Stamp})
			if rec.Peer >= 0 && rec.Peer < len(n.cfg.Placement) && n.cfg.Placement[rec.Peer] != n.cfg.Node {
				n.noteMerged(rec.Peer, rec.Seq, p, rec.Stamp)
			}
			n.cfg.Obs.Rendezvous(n.cfg.Node, p, rec.Peer, obs.PhaseMerge, rec.Stamp)
		case journalInternal:
			st.log = append(st.log, csp.Record{Kind: csp.RecordInternal, Note: rec.Note})
			if n.cfg.Obs.Recording() {
				n.cfg.Obs.Internal(n.cfg.Node, p, st.clock.Current(), rec.Note)
			}
		default:
			return nil, fmt.Errorf("node %d: journal holds unknown record kind %q", n.cfg.Node, rec.Kind)
		}
		st.ops++
		counts[p] = st.ops
	}
	// Session resume: our dial epochs must exceed anything the previous
	// incarnation used. Each incarnation gets a wide stride so redials
	// within a life never collide with the next life's base.
	n.mu.Lock()
	n.baseEpoch = n.rec.Journal.Restarts() << 16
	for j := range n.epochs {
		n.epochs[j] = n.baseEpoch
	}
	n.mu.Unlock()
	return counts, nil
}
