// Sharded streaming collector tree.
//
// The flat collect path (report.go) funnels every process's log into one
// collector that reconstructs the whole trace in memory — O(run) state,
// which caps run size long before the hot path does. The tree splits the
// work across leaf collectors, each owning a partition (shard) of the
// process space:
//
//	records ──route by proc % leaves──▶ leaf: verify incrementally (chain
//	        monotonicity, star-root density — internal/check.ShardVerifier),
//	        spill verified segments to an fsynced journal file, keep only
//	        O(shard) state
//	leaf ──wire.ShardSummary──▶ root: judge cross-shard consistency from
//	        the per-group multiset fingerprints (check.CombineSummaries)
//
// Root and leaves are goroutines of one process: a leaf reports by storing
// its summary when its stream ends, and the root reads it once the leaf
// goroutine has exited.
package node

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/wire"
)

// TreeConfig shapes a collector tree.
type TreeConfig struct {
	// Leaves is the number of leaf collectors (default 1). Processes are
	// assigned by the modulo rule proc % Leaves.
	Leaves int
	// SpillDir, when non-empty, is the directory verified segments are
	// spilled to, one fsynced journal file per shard (shard-<leaf>.spill).
	// Empty disables spill: records stream through verification and are
	// dropped.
	SpillDir string
	// SegmentRecords is the spill segment size in records (default 4096).
	// One fsync covers each segment, and a leaf's resident buffer never
	// exceeds it.
	SegmentRecords int
	// KeepLogs retains every record in memory, so Logs() can feed
	// core.Reconstruct afterwards — the control-run mode that cross-checks
	// the streaming verdict against the whole-trace replay oracle. Defeats
	// the bounded-memory point at scale; for small runs only.
	KeepLogs bool

	// crashLeaf/crashAfter are test hooks: leaf crashLeaf dies without a
	// summary after crashAfter records (crashAfter 0 disables).
	crashLeaf  int
	crashAfter int64
}

// TreeVerdict is the root's judgment of a collected run plus the tree's
// resource accounting.
type TreeVerdict struct {
	// OK means every shard reported, verified cleanly, and the cross-shard
	// fingerprints agree.
	OK bool
	// Shards counts the leaf summaries that reached the root.
	Shards int
	// Messages and Records are run totals counted by the shards.
	Messages int64
	Records  int64
	// SegmentsSpilled and SpillBytes account the spill traffic across
	// leaves.
	SegmentsSpilled int64
	SpillBytes      int64
	// MaxResident is the largest record buffer any leaf held at once —
	// bounded by SegmentRecords when spilling, which is the O(shard) claim
	// in a measurable form.
	MaxResident int64
	// Problems lists everything the root found wrong, in group order.
	Problems []string
}

// String renders the verdict one line per fact, problems last.
func (v *TreeVerdict) String() string {
	s := fmt.Sprintf("verdict ok=%v shards=%d messages=%d records=%d segments=%d spill_bytes=%d",
		v.OK, v.Shards, v.Messages, v.Records, v.SegmentsSpilled, v.SpillBytes)
	for _, p := range v.Problems {
		s += "\n  problem: " + p
	}
	return s
}

// procRec is one routed record.
type procRec struct {
	proc int
	rec  core.Record
}

// CollectorTree is a 2-level streaming collector: leaf goroutines verify
// and spill their shards concurrently, a root combines their summaries.
// Ingest may be called from many goroutines; Finish must be called exactly
// once, after every Ingest has returned.
type CollectorTree struct {
	topo   check.Topology
	chans  []chan procRec
	leaves []*leafCollector
	wg     sync.WaitGroup
}

// leafCollector owns one shard: a verifier, a segment buffer, and a spill
// journal. Its run loop is the only goroutine touching the fields below the
// channel until it exits; Finish reads them after that.
type leafCollector struct {
	ch chan procRec

	ver      *check.ShardVerifier
	jr       *Journal
	seg      []JournalRecord
	segCap   int
	keepLogs bool
	logs     map[int][]core.Record

	records     int64
	segments    int64
	spillBytes  int64
	maxResident int64
	ioErr       error

	crashAfter int64
	crashed    bool

	// sum is the leaf's report to the root, set when its stream ends; a
	// crashed leaf leaves it nil.
	sum *wire.ShardSummary
}

// NewCollectorTree builds the tree, opening every leaf's spill journal,
// and starts its leaf goroutines.
func NewCollectorTree(topo check.Topology, cfg TreeConfig) (*CollectorTree, error) {
	if cfg.Leaves <= 0 {
		cfg.Leaves = 1
	}
	if cfg.SegmentRecords <= 0 {
		cfg.SegmentRecords = 4096
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("node: collector spill dir: %w", err)
		}
	}
	t := &CollectorTree{topo: topo}
	for i := 0; i < cfg.Leaves; i++ {
		l := &leafCollector{
			ch:       make(chan procRec, 1024),
			ver:      check.NewShardVerifier(topo, i),
			segCap:   cfg.SegmentRecords,
			keepLogs: cfg.KeepLogs,
		}
		if cfg.KeepLogs {
			l.logs = make(map[int][]core.Record)
		}
		if cfg.crashAfter > 0 && cfg.crashLeaf == i {
			l.crashAfter = cfg.crashAfter
		}
		if cfg.SpillDir != "" {
			jr, prior, err := OpenJournal(SpillPath(cfg.SpillDir, i))
			if err != nil {
				t.closeSpills()
				return nil, err
			}
			if len(prior) > 0 {
				_ = jr.Close()
				t.closeSpills()
				return nil, fmt.Errorf("node: spill file %s already holds %d records", SpillPath(cfg.SpillDir, i), len(prior))
			}
			l.jr = jr
		}
		t.chans = append(t.chans, l.ch)
		t.leaves = append(t.leaves, l)
	}
	for _, l := range t.leaves {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			l.run()
		}()
	}
	return t, nil
}

// closeSpills closes every leaf's spill journal.
func (t *CollectorTree) closeSpills() {
	for _, l := range t.leaves {
		if l.jr != nil {
			_ = l.jr.Close()
		}
	}
}

// SpillPath is shard leaf's spill file under dir.
func SpillPath(dir string, leaf int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.spill", leaf))
}

// Ingest routes one record to its shard's leaf, in the caller's program
// order for the process. Safe for concurrent use; callers must preserve
// per-process ordering themselves (hold the process's lock across the
// call).
func (t *CollectorTree) Ingest(proc int, rec core.Record) error {
	t.chans[proc%len(t.chans)] <- procRec{proc: proc, rec: rec}
	return nil
}

// Finish closes the stream, waits for the leaves, rolls their summaries
// up to the root, and returns the verdict. No Ingest may be in flight or
// follow.
func (t *CollectorTree) Finish() (*TreeVerdict, error) {
	for _, ch := range t.chans {
		close(ch)
	}
	t.wg.Wait()
	t.closeSpills()
	tv := &TreeVerdict{}
	sums := make([]*wire.ShardSummary, len(t.leaves))
	for i, l := range t.leaves {
		tv.SegmentsSpilled += l.segments
		tv.SpillBytes += l.spillBytes
		if l.maxResident > tv.MaxResident {
			tv.MaxResident = l.maxResident
		}
		// A crashed leaf has no summary (nil), so the root judges it
		// missing.
		sums[i] = l.sum
	}
	verdict := check.CombineSummaries(t.topo, len(t.leaves), sums)
	tv.OK = verdict.OK
	tv.Shards = verdict.Shards
	tv.Messages = int64(verdict.Messages)
	tv.Records = int64(verdict.Records)
	tv.Problems = verdict.Problems
	return tv, nil
}

// Logs merges the leaves' retained logs (KeepLogs mode) into the
// per-process slice core.Reconstruct takes.
func (t *CollectorTree) Logs() [][]core.Record {
	logs := make([][]core.Record, t.topo.N())
	for _, l := range t.leaves {
		for p := 0; p < len(logs); p++ {
			if log, ok := l.logs[p]; ok {
				logs[p] = log
			}
		}
	}
	return logs
}

// run is a leaf's life: drain the stream, flush the last segment, and
// store the summary for the root.
func (l *leafCollector) run() {
	for pr := range l.ch {
		if l.crashed {
			continue // drain so Ingest never blocks on a dead shard
		}
		l.ingest(pr)
	}
	if l.crashed {
		return // simulated mid-stream death: no summary ever reaches the root
	}
	l.flushSegment()
	sum := l.ver.Summary()
	sum.Segments = uint64(l.segments)
	sum.Spilled = uint64(l.spillBytes)
	if sum.Err == "" && l.ioErr != nil {
		sum.Err = l.ioErr.Error()
	}
	l.sum = sum
}

// ingest verifies, retains, and spills one record.
func (l *leafCollector) ingest(pr procRec) {
	l.records++
	if l.crashAfter > 0 && l.records >= l.crashAfter {
		l.crashed = true
		return
	}
	_ = l.ver.Ingest(pr.proc, pr.rec) // the verifier holds its first error for the summary
	if l.keepLogs {
		l.logs[pr.proc] = append(l.logs[pr.proc], pr.rec)
	}
	if l.jr == nil {
		return
	}
	jr := JournalRecord{Proc: pr.proc, Peer: pr.rec.Peer, Stamp: pr.rec.Stamp}
	switch pr.rec.Kind {
	case core.RecordSend:
		jr.Kind = journalSend
	case core.RecordRecv:
		jr.Kind = journalRecv
	case core.RecordInternal:
		jr.Kind = journalInternal
		jr.Peer = 0
		jr.Stamp = nil
		jr.Note = fmt.Sprint(pr.rec.Note)
	}
	l.seg = append(l.seg, jr)
	if n := int64(len(l.seg)); n > l.maxResident {
		l.maxResident = n
	}
	if len(l.seg) >= l.segCap {
		l.flushSegment()
	}
}

// flushSegment spills the buffered segment: one Write, one fsync.
func (l *leafCollector) flushSegment() {
	if l.jr == nil || len(l.seg) == 0 || l.ioErr != nil {
		return
	}
	n, err := l.jr.AppendBatch(l.seg)
	if err != nil {
		l.ioErr = err
		return
	}
	l.segments++
	l.spillBytes += int64(n)
	l.seg = l.seg[:0]
}

// ReadSpill restores the per-process logs a collector tree spilled under
// dir: each shard file is replayed with the journal's torn-tail recovery,
// so a tree killed mid-segment restores the complete prefix of every
// shard's verified stream. It only reads; the shard files are left as they
// were.
func ReadSpill(dir string, leaves, n int) ([][]core.Record, error) {
	logs := make([][]core.Record, n)
	for leaf := 0; leaf < leaves; leaf++ {
		recs, err := readJournal(SpillPath(dir, leaf))
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if rec.Proc < 0 || rec.Proc >= n {
				return nil, fmt.Errorf("node: spill shard %d names process %d, out of range", leaf, rec.Proc)
			}
			var cr core.Record
			switch rec.Kind {
			case journalSend:
				cr = core.Record{Kind: core.RecordSend, Peer: rec.Peer, Stamp: rec.Stamp}
			case journalRecv:
				cr = core.Record{Kind: core.RecordRecv, Peer: rec.Peer, Stamp: rec.Stamp}
			case journalInternal:
				cr = core.Record{Kind: core.RecordInternal, Note: rec.Note}
			default:
				return nil, fmt.Errorf("node: spill shard %d holds unknown record kind %d", leaf, rec.Kind)
			}
			logs[rec.Proc] = append(logs[rec.Proc], cr)
		}
	}
	return logs, nil
}
