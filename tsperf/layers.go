package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/node"
	"syncstamp/internal/trace"
	"syncstamp/internal/wire"
)

// The traced pass measures layers from outside: it wraps the transport the
// node is handed, reads the counters RunInfo and the obs registry already
// export, and replays a traced iteration's records through each layer's
// public functions. Nothing here reaches inside the program.

// countingTransport wraps a node.Transport. Every connection it hands out
// counts the calls and bytes the node's coalescing writer and its reader
// put through it, times each Write, and keeps a copy of the bytes written
// so the wire probe can decode the exact stream that crossed TCP.
type countingTransport struct {
	inner node.Transport
	mu    sync.Mutex
	conns []*countingConn
}

func (t *countingTransport) Dial(n int, deadline time.Time) (net.Conn, error) {
	c, err := t.inner.Dial(n, deadline)
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *countingTransport) Accept() (net.Conn, error) {
	c, err := t.inner.Accept()
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *countingTransport) Close() error { return t.inner.Close() }

func (t *countingTransport) wrap(c net.Conn) net.Conn {
	cc := &countingConn{Conn: c}
	t.mu.Lock()
	t.conns = append(t.conns, cc)
	t.mu.Unlock()
	return cc
}

// snapshot returns the connections opened so far. Taken when Run returns,
// it is exactly the data connections: report streams open afterwards.
func (t *countingTransport) snapshot() []*countingConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*countingConn(nil), t.conns...)
}

type countingConn struct {
	net.Conn
	mu            sync.Mutex
	writes, reads int64
	wbytes        int64
	writeNS       int64
	out           []byte
}

func (c *countingConn) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Write(p)
	d := time.Since(t)
	c.mu.Lock()
	c.writes++
	c.wbytes += int64(n)
	c.writeNS += int64(d)
	c.out = append(c.out, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	return n, err
}

// connTotals sums the counters of a set of connections.
type connTotals struct {
	writes, reads, wbytes, writeNS int64
	streams                        [][]byte
}

func totals(conns []*countingConn) connTotals {
	var t connTotals
	for _, c := range conns {
		c.mu.Lock()
		t.writes += c.writes
		t.reads += c.reads
		t.wbytes += c.wbytes
		t.writeNS += c.writeNS
		t.streams = append(t.streams, c.out)
		c.mu.Unlock()
	}
	return t
}

// procRecord is one log record of one process, in the order a collector
// receives it.
type procRecord struct {
	proc int
	rec  csp.Record
}

// interleave streams per-process logs round-robin, each process's records
// in program order — the order concurrent reports reach a collector.
func interleave(logs [][]csp.Record) []procRecord {
	var out []procRecord
	for i := 0; ; i++ {
		more := false
		for p, log := range logs {
			if i < len(log) {
				out = append(out, procRecord{p, log[i]})
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// stampRepeats is how often the stamp probe replays a trace; the median
// is reported.
const stampRepeats = 3

// probeStamp times core.StampTrace over a trace and returns nanoseconds
// per message.
func probeStamp(tr *trace.Trace, dec *decomp.Decomposition) (float64, error) {
	var ds []float64
	for r := 0; r < stampRepeats; r++ {
		t := time.Now()
		if _, err := core.StampTrace(tr, dec); err != nil {
			return 0, fmt.Errorf("stamp probe: %w", err)
		}
		ds = append(ds, float64(time.Since(t).Nanoseconds()))
	}
	return median(ds) / float64(tr.NumMessages()), nil
}

// probeWire decodes each captured stream with wire.NewDecoder, then
// re-encodes its frames with a batch wire.NewEncoder writing to
// io.Discard, and returns nanoseconds per frame for each direction.
func probeWire(streams [][]byte, d int, selfContained bool) (encNS, decNS float64, err error) {
	var frames [][]*wire.Frame
	var n int
	t := time.Now()
	for _, s := range streams {
		dec := wire.NewDecoder(bytes.NewReader(s), d)
		var fs []*wire.Frame
		for {
			f, err := dec.Decode()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return 0, 0, fmt.Errorf("wire probe: %w", err)
			}
			fs = append(fs, f)
		}
		frames = append(frames, fs)
		n += len(fs)
	}
	decDur := time.Since(t)
	t = time.Now()
	for _, fs := range frames {
		enc := wire.NewEncoder(io.Discard, d)
		enc.SelfContained = selfContained
		enc.SetBatch(true)
		for _, f := range fs {
			if err := enc.Encode(f); err != nil {
				return 0, 0, fmt.Errorf("wire probe: %w", err)
			}
		}
		if err := enc.Flush(); err != nil {
			return 0, 0, fmt.Errorf("wire probe: %w", err)
		}
	}
	encDur := time.Since(t)
	if n == 0 {
		return 0, 0, errors.New("wire probe: no frames captured")
	}
	return float64(encDur.Nanoseconds()) / float64(n), float64(decDur.Nanoseconds()) / float64(n), nil
}

// reportStream encodes records as the report frames SendReport would put
// on the wire: a send as SYN, a receive as ACK.
func reportStream(recs []procRecord, d int) ([]byte, error) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf, d)
	enc.SetBatch(true)
	for _, r := range recs {
		f := &wire.Frame{Kind: wire.KindSyn, From: r.proc, To: r.rec.Peer, Vec: r.rec.Stamp}
		if r.rec.Kind == csp.RecordRecv {
			f = &wire.Frame{Kind: wire.KindAck, From: r.rec.Peer, To: r.proc, Vec: r.rec.Stamp}
		}
		if err := enc.Encode(f); err != nil {
			return nil, err
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Tree shape: tsload's -leaves 4 -spill-dir with its default 4096-record
// segments.
const (
	treeLeaves  = 4
	treeSegment = 4096
)

func newTree(topo check.Topology, dir string) (*node.CollectorTree, error) {
	return node.NewCollectorTree(topo, node.TreeConfig{Leaves: treeLeaves, SpillDir: dir, SegmentRecords: treeSegment})
}

// treeLayers fills the tree metrics from a finished tree and the timed
// Ingest calls that fed it.
func treeLayers(layers map[string]float64, v *node.TreeVerdict, ingest []int64, finish time.Duration) {
	recs := float64(v.Records)
	layers["tree.ingest_p99_ns"] = float64(percentile(sortedCopy(ingest), p99))
	layers["tree.finish_ms"] = float64(finish.Nanoseconds()) / 1e6
	layers["tree.segments_per_1k"] = float64(v.SegmentsSpilled) * 1000 / recs
	layers["tree.spill_bytes_per_record"] = float64(v.SpillBytes) / recs
	layers["tree.max_resident"] = float64(v.MaxResident)
}

// probeTree streams records into a fresh spilling collector tree, timing
// every Ingest, and checks the verdict.
func probeTree(layers map[string]float64, topo check.Topology, recs []procRecord, dir string) error {
	tree, err := newTree(topo, dir)
	if err != nil {
		return err
	}
	ingest := make([]int64, 0, len(recs))
	for _, r := range recs {
		t := time.Now()
		if err := tree.Ingest(r.proc, r.rec); err != nil {
			return err
		}
		ingest = append(ingest, int64(time.Since(t)))
	}
	t := time.Now()
	v, err := tree.Finish()
	if err != nil {
		return err
	}
	finish := time.Since(t)
	if !v.OK {
		return fmt.Errorf("%w: tree probe verdict: %v", errVerify, v.Problems)
	}
	treeLayers(layers, v, ingest, finish)
	return nil
}

// probeVerify replays records through one check.ShardVerifier per shard
// in a single goroutine with no spill, which separates verification from
// the tree's channels and disk, and returns nanoseconds per record.
func probeVerify(topo check.Topology, recs []procRecord) (float64, error) {
	vers := make([]*check.ShardVerifier, treeLeaves)
	for i := range vers {
		vers[i] = check.NewShardVerifier(topo, i)
	}
	t := time.Now()
	for _, r := range recs {
		// A failed Ingest is held for the summary, which is checked below.
		_ = vers[r.proc%treeLeaves].Ingest(r.proc, r.rec)
	}
	d := time.Since(t)
	sums := make([]*wire.ShardSummary, len(vers))
	for i, v := range vers {
		sums[i] = v.Summary()
	}
	if v := check.CombineSummaries(topo, treeLeaves, sums); !v.OK {
		return 0, fmt.Errorf("%w: shard verifier probe: %v", errVerify, v.Problems)
	}
	return float64(d.Nanoseconds()) / float64(len(recs)), nil
}

// fsyncProbes is how many write+fsync pairs the device probe times.
const fsyncProbes = 32

// probeFsync times a bare 128-byte write plus fsync in dir — the device
// floor every journal commit and spill segment pays — and returns the
// median in microseconds.
func probeFsync(dir string) (us float64, err error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	buf := make([]byte, 128)
	var ds []float64
	for i := 0; i < fsyncProbes; i++ {
		t := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(ds), nil
}

// The append probes are bound by fsyncs, so they replay a capped share of
// the records: appendProbeRecords for one-record commits, which group
// commit batches into a few hundred fsyncs, and batchProbeSegments
// segments per leaf for the tree's one-fsync-per-segment commits.
const (
	appendProbeRecords = 8192
	batchProbeSegments = 8
)

// spillRecords reads a tree's spill journals back as journal records, one
// slice per shard. The spill files use the journal's own format, so the
// records are exactly what a journal holds.
func spillRecords(dir string) ([][]node.JournalRecord, error) {
	shards := make([][]node.JournalRecord, treeLeaves)
	for i := range shards {
		j, recs, err := node.OpenJournal(node.SpillPath(dir, i))
		if err != nil {
			return nil, err
		}
		if err := j.Close(); err != nil {
			return nil, err
		}
		shards[i] = recs
	}
	return shards, nil
}

// probeAppend replays records into one fresh journal the way a node
// commits them: one goroutine per hosted process, each appending its
// process's records in order, all sharing the journal's group commit. It
// returns the wall time per record (the inverse of journal throughput) and
// bytes per record, and leaves the journal at path for the restore probe.
func probeAppend(path string, byProc map[int][]node.JournalRecord) (us, bytesPer float64, err error) {
	j, _, err := node.OpenJournal(path)
	if err != nil {
		return 0, 0, err
	}
	var n int
	var wg sync.WaitGroup
	errs := make(chan error, len(byProc))
	t := time.Now()
	for _, recs := range byProc {
		n += len(recs)
		wg.Add(1)
		go func(recs []node.JournalRecord) {
			defer wg.Done()
			for _, r := range recs {
				if err := j.Append(r); err != nil {
					errs <- err
					return
				}
			}
		}(recs)
	}
	wg.Wait()
	d := time.Since(t)
	close(errs)
	if err := <-errs; err != nil {
		_ = j.Close() // the append error is the one to report
		return 0, 0, err
	}
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n), float64(st.Size()) / float64(n), nil
}

// probeAppendBatch replays spill records the way a collector tree commits
// them: one goroutine per leaf, each appending its shard in segments with
// AppendBatch into its own fresh journal. It returns the wall time per
// record and bytes per record.
func probeAppendBatch(dir string, shards [][]node.JournalRecord) (us, bytesPer float64, err error) {
	var n int
	var size int64
	var wg sync.WaitGroup
	errs := make(chan error, len(shards))
	js := make([]*node.Journal, len(shards))
	for i := range shards {
		j, _, err := node.OpenJournal(filepath.Join(dir, fmt.Sprintf("batch-%d.journal", i)))
		if err != nil {
			for _, j := range js[:i] {
				_ = j.Close() // nothing appended yet; the open error is the one to report
			}
			return 0, 0, err
		}
		js[i] = j
	}
	t := time.Now()
	for i, recs := range shards {
		n += len(recs)
		wg.Add(1)
		go func(j *node.Journal, recs []node.JournalRecord) {
			defer wg.Done()
			for len(recs) > 0 {
				seg := recs[:min(treeSegment, len(recs))]
				recs = recs[len(seg):]
				if _, err := j.AppendBatch(seg); err != nil {
					errs <- err
					return
				}
			}
		}(js[i], recs)
	}
	wg.Wait()
	d := time.Since(t)
	close(errs)
	for _, j := range js {
		if cerr := j.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = <-errs
	}
	if err != nil {
		return 0, 0, err
	}
	for i := range shards {
		st, err := os.Stat(filepath.Join(dir, fmt.Sprintf("batch-%d.journal", i)))
		if err != nil {
			return 0, 0, err
		}
		size += st.Size()
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(n), float64(size) / float64(n), nil
}

// probeRestore reopens a journal and restores it into a fresh node 0, as a
// restarted tsnode does, checks that every process resumed exactly want
// operations, and returns the time per record.
func probeRestore(path string, dec *decomp.Decomposition, placement []int, want map[int]int) (float64, error) {
	t := time.Now()
	j, recs, err := node.OpenJournal(path)
	if err != nil {
		return 0, err
	}
	defer func() { _ = j.Close() }() // read side; the restart marker is already durable
	nodes := 0
	for _, h := range placement {
		nodes = max(nodes, h+1)
	}
	n, err := node.New(node.Config{Node: 0, Placement: placement, Dec: dec, Recovery: &node.RecoveryConfig{Journal: j}},
		node.NewLoop(nodes).Transport(0))
	if err != nil {
		return 0, err
	}
	defer n.Close()
	got, err := n.Restore(recs)
	if err != nil {
		return 0, err
	}
	d := time.Since(t)
	for p, w := range want {
		if got[p] != w {
			return 0, fmt.Errorf("%w: restore resumed %d operations of process %d, the run committed %d", errVerify, got[p], p, w)
		}
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(len(recs)), nil
}
