package node

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
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

// JournalRecord is one committed operation in the crash-recovery journal:
// a rendezvous half (send = the sender's adopt, recv = the receiver's
// merge) or an internal event. The write-ahead discipline — a receiver
// journals before its ACK leaves the node, a sender after its adopt — plus
// the idempotent dedup/re-ACK protocol make every crash window safe: an
// operation is either in the journal (skipped on resume, its ACK
// re-answered from the dedup cache) or not (replayed from scratch, the
// peer's retransmission completing it deterministically).
type JournalRecord struct {
	Kind  string   `json:"kind"`
	Proc  int      `json:"proc"`
	Peer  int      `json:"peer,omitempty"`
	Seq   uint64   `json:"seq,omitempty"`
	Stamp vector.V `json:"stamp,omitempty"`
	Note  string   `json:"note,omitempty"`
	// Node is the hosting node, recorded by flight dumps (which may be
	// merged across nodes); the crash-recovery journal leaves it zero —
	// a journal file is per-node by construction.
	Node int `json:"node,omitempty"`
}

// Journal is an append-only JSONL file of committed operations, safe for
// concurrent use by a node's process goroutines.
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

	// Group-commit state, guarded by mu. Records queue as complete
	// newline-terminated JSONL lines in buf; a crash mid-batch therefore
	// tears at most the batch's last line, which replay already truncates.
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
// returns the committed operation records in file order, truncates a
// partial trailing line (a crash mid-append leaves at most one), and — if
// the file held any prior content — appends a restart marker so Restarts
// counts this incarnation.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("node: open journal: %w", err)
	}
	recs, restarts, good, prior, err := replayJournal(f)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	// Drop the partial trailing line, if any, so appends start at a record
	// boundary.
	if err := f.Truncate(good); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("node: truncate journal: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("node: seek journal: %w", err)
	}
	// Batch numbering starts at 1 so the zero value of committed means
	// "nothing durable yet".
	j := &Journal{f: f, restarts: restarts, batch: 1, done: make(chan struct{})}
	if prior {
		j.restarts++
		if err := j.Append(JournalRecord{Kind: journalRestart}); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	}
	return j, recs, nil
}

// replayJournal scans the file, returning the operation records, the
// restart-marker count, the offset of the last complete record, and
// whether the file held any prior content.
func replayJournal(f *os.File) (recs []JournalRecord, restarts int, good int64, prior bool, err error) {
	r := bufio.NewReader(f)
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil {
			// A trailing fragment without '\n' is an interrupted append:
			// ignore it (it was never committed).
			if rerr == io.EOF {
				return recs, restarts, good, prior, nil
			}
			return nil, 0, 0, false, fmt.Errorf("node: read journal: %w", rerr)
		}
		var rec JournalRecord
		if json.Unmarshal(line, &rec) != nil {
			// A corrupt line means everything after it is untrustworthy;
			// stop replay at the last good record.
			return recs, restarts, good, prior, nil
		}
		good += int64(len(line))
		prior = true
		if rec.Kind == journalRestart {
			restarts++
			continue
		}
		recs = append(recs, rec)
	}
}

// Append commits one record. The record is durable when Append returns:
// either this goroutine wrote and fsynced it as the batch leader, or it
// waited for the leader whose batch carried it.
func (j *Journal) Append(rec JournalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("node: journal encode: %w", err)
	}
	return j.commit(append(b, '\n'), 1)
}

// AppendBatch commits records as one segment: all lines in one Write, made
// durable by the same group-commit machinery (one fsync covers the whole
// segment — the collector tree's spill path). It returns the bytes
// appended. A crash tears at most the segment's trailing line, which replay
// truncates, so a restored spill file is always a complete record prefix.
func (j *Journal) AppendBatch(recs []JournalRecord) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	var buf []byte
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return 0, fmt.Errorf("node: journal encode: %w", err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	return len(buf), j.commit(buf, int64(len(recs)))
}

// commit makes one pre-marshaled run of complete JSONL lines durable,
// counting it as count records.
func (j *Journal) commit(b []byte, count int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.appends += count
	j.buf = append(j.buf, b...)
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
	return j.err
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
// operations' obs trace events, so a post-crash JSONL trace still carries
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
			n.obsv.Rendezvous(n.cfg.Node, p, rec.Peer, obs.PhaseAdopt, rec.Stamp)
		case journalRecv:
			if err := st.clock.Adopt(rec.Stamp, rec.Peer); err != nil {
				return nil, fmt.Errorf("node %d: journal replay, process %d recv from %d: %w", n.cfg.Node, p, rec.Peer, err)
			}
			st.log = append(st.log, csp.Record{Kind: csp.RecordRecv, Peer: rec.Peer, Stamp: rec.Stamp})
			if rec.Peer >= 0 && rec.Peer < len(n.cfg.Placement) && n.cfg.Placement[rec.Peer] != n.cfg.Node {
				n.noteMerged(rec.Peer, rec.Seq, p, rec.Stamp)
			}
			n.obsv.Rendezvous(n.cfg.Node, p, rec.Peer, obs.PhaseMerge, rec.Stamp)
		case journalInternal:
			st.log = append(st.log, csp.Record{Kind: csp.RecordInternal, Note: rec.Note})
			if o := n.obsv; o != nil && (o.Tracer != nil || o.Flight != nil) {
				o.Internal(n.cfg.Node, p, st.clock.Current(), rec.Note)
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
