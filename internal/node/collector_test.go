package node

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// oracleLogs builds per-process rendezvous logs carrying the sequential
// replay oracle's stamps for a generated computation — the input a correct
// distributed run hands a collector.
func oracleLogs(t *testing.T, in *check.Input) [][]csp.Record {
	t.Helper()
	stamps, err := core.StampTrace(in.Trace, in.Dec)
	if err != nil {
		t.Fatalf("seed %d: StampTrace: %v", in.Seed, err)
	}
	logs := make([][]csp.Record, in.Topo.N())
	mi := 0
	for _, op := range in.Trace.Ops {
		switch op.Kind {
		case trace.OpMessage:
			s := stamps[mi]
			mi++
			logs[op.From] = append(logs[op.From], csp.Record{Kind: csp.RecordSend, Peer: op.To, Stamp: s})
			logs[op.To] = append(logs[op.To], csp.Record{Kind: csp.RecordRecv, Peer: op.From, Stamp: s})
		case trace.OpInternal:
			logs[op.Proc] = append(logs[op.Proc], csp.Record{Kind: csp.RecordInternal, Note: "tick"})
		}
	}
	return logs
}

// feedTree streams logs into a tree, each process in program order,
// processes concurrently — the access pattern a live collect produces.
func feedTree(tree *CollectorTree, logs [][]csp.Record) {
	var wg sync.WaitGroup
	for p, log := range logs {
		wg.Add(1)
		go func(p int, log []csp.Record) {
			defer wg.Done()
			for _, rec := range log {
				_ = tree.Ingest(p, rec)
			}
		}(p, log)
	}
	wg.Wait()
}

// genSeed picks a generated computation with enough traffic to fill spill
// segments.
func genSeed(t *testing.T) *check.Input {
	t.Helper()
	for seed := int64(0); seed < 100; seed++ {
		in := check.GenInput(seed, check.Config{})
		if in.Trace.NumMessages() >= 30 {
			return in
		}
	}
	t.Fatal("no generated trace carries 30 messages")
	return nil
}

// TestCollectorTreeMatchesReplay streams an oracle-stamped run through a
// 4-leaf spilling tree: the verdict must be clean with exact totals, spill
// must engage with resident memory bounded by the segment size, the
// retained logs must reconstruct a trace whose stamps match the sequential
// replay, and the spill files must restore the identical logs.
func TestCollectorTreeMatchesReplay(t *testing.T) {
	in := genSeed(t)
	logs := oracleLogs(t, in)
	topo := check.NewDecompTopology(in.Dec)
	dir := t.TempDir()
	const leaves, segRecords = 4, 8
	tree, err := NewCollectorTree(topo, TreeConfig{Leaves: leaves, SpillDir: dir, SegmentRecords: segRecords, KeepLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	feedTree(tree, logs)
	v, err := tree.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("clean run rejected: %v", v.Problems)
	}
	if int(v.Messages) != in.Trace.NumMessages() {
		t.Fatalf("verdict counts %d messages, trace has %d", v.Messages, in.Trace.NumMessages())
	}
	if v.Shards != leaves {
		t.Fatalf("verdict saw %d shards, tree has %d", v.Shards, leaves)
	}
	if v.SegmentsSpilled == 0 || v.SpillBytes == 0 {
		t.Fatalf("spill never engaged: %d segments, %d bytes", v.SegmentsSpilled, v.SpillBytes)
	}
	if v.MaxResident > segRecords {
		t.Fatalf("a leaf held %d records resident, segment size is %d", v.MaxResident, segRecords)
	}

	// The streaming verdict must agree with the whole-trace replay oracle
	// over the retained logs.
	res, err := csp.Reconstruct(in.Dec, tree.Logs())
	if err != nil {
		t.Fatalf("reconstruct retained logs: %v", err)
	}
	if err := check.Verify(res, in.Dec); err != nil {
		t.Fatal(err)
	}

	// The spill is the run: restoring it yields the same per-process logs.
	restored, err := ReadSpill(dir, leaves, in.Topo.N())
	if err != nil {
		t.Fatal(err)
	}
	for p := range logs {
		if len(restored[p]) != len(logs[p]) {
			t.Fatalf("process %d: spill restored %d records, logged %d", p, len(restored[p]), len(logs[p]))
		}
		for i := range logs[p] {
			want, got := logs[p][i], restored[p][i]
			if got.Kind != want.Kind || got.Peer != want.Peer || !vector.Eq(got.Stamp, want.Stamp) {
				t.Fatalf("process %d record %d: restored %+v, logged %+v", p, i, got, want)
			}
		}
	}
}

// TestCollectorTreeCorruptStamp confirms a sharded tree still flips the
// verdict when one stamp half is corrupted in flight.
func TestCollectorTreeCorruptStamp(t *testing.T) {
	in := genSeed(t)
	logs := oracleLogs(t, in)
corrupt:
	for p := range logs {
		for i, rec := range logs[p] {
			if rec.Kind == csp.RecordSend {
				logs[p][i].Stamp = rec.Stamp.Clone()
				logs[p][i].Stamp[len(rec.Stamp)-1] += 2
				break corrupt
			}
		}
	}
	tree, err := NewCollectorTree(check.NewDecompTopology(in.Dec), TreeConfig{Leaves: 3})
	if err != nil {
		t.Fatal(err)
	}
	feedTree(tree, logs)
	v, err := tree.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("corrupted stamp half accepted by the tree")
	}
}

// TestCollectorTreeLeafCrash kills one leaf mid-stream: Ingest must not
// block, the root must refuse the run, the verdict must name the missing
// shard, and the rollup must count only the healthy leaves' records.
func TestCollectorTreeLeafCrash(t *testing.T) {
	in := genSeed(t)
	logs := oracleLogs(t, in)
	topo := check.NewDecompTopology(in.Dec)
	const leaves = 4
	tree, err := NewCollectorTree(topo, TreeConfig{
		Leaves:     leaves,
		crashLeaf:  2,
		crashAfter: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		feedTree(tree, logs)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Ingest blocked on the crashed leaf")
	}
	v, err := tree.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("verdict OK despite a crashed leaf")
	}
	hit := false
	for _, p := range v.Problems {
		if strings.Contains(p, "shard 2 missing") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no problem names the crashed shard: %v", v.Problems)
	}
	// The crashed leaf counted records before it died; only the healthy
	// leaves' summaries may reach the verdict's totals.
	healthy := 0
	for p, log := range logs {
		if p%leaves != 2 {
			healthy += len(log)
		}
	}
	if v.Records != int64(healthy) {
		t.Fatalf("verdict counts %d records, want %d (the healthy leaves' records)", v.Records, healthy)
	}
}

// TestSpillTornSegmentRestore kills a spill file inside its final record —
// cut at every byte offset, the torn tail a crash mid-write leaves, and
// flipped so its checksum fails — and requires restore to come back with
// exactly the complete prefix, mirroring the journal's torn-tail recovery.
// ReadSpill only reads: every shard file is byte-identical after it.
func TestSpillTornSegmentRestore(t *testing.T) {
	in := genSeed(t)
	logs := oracleLogs(t, in)
	topo := check.NewDecompTopology(in.Dec)
	dir := t.TempDir()
	const leaves = 2
	tree, err := NewCollectorTree(topo, TreeConfig{Leaves: leaves, SpillDir: dir, SegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	feedTree(tree, logs)
	if _, err := tree.Finish(); err != nil {
		t.Fatal(err)
	}
	shards := make([][]byte, leaves)
	for leaf := range shards {
		if shards[leaf], err = os.ReadFile(SpillPath(dir, leaf)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := ReadSpill(dir, leaves, in.Topo.N())
	if err != nil {
		t.Fatal(err)
	}
	for leaf, want := range shards {
		if got, err := os.ReadFile(SpillPath(dir, leaf)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("shard %d changed under ReadSpill (%v)", leaf, err)
		}
	}
	fullN := 0
	for p := range full {
		fullN += len(full[p])
	}

	// Tear shard 0 inside its final data record.
	path := SpillPath(dir, 0)
	recs, good, err := decodeJournal(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if good != len(shards[0]) || len(recs) == 0 {
		t.Fatalf("shard 0 of %d bytes decodes %d records in %d bytes", len(shards[0]), len(recs), good)
	}
	for i, img := range tornImages(shards[0], lastRecordStart(t, shards[0], recs[len(recs)-1])) {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadSpill(dir, leaves, in.Topo.N())
		if err != nil {
			t.Fatalf("image %d: restore after torn segment: %v", i, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, img) {
			t.Fatalf("image %d: torn shard changed under ReadSpill (%v)", i, err)
		}
		restoredN := 0
		for p := range full {
			restoredN += len(restored[p])
			if len(restored[p]) > len(full[p]) {
				t.Fatalf("image %d, process %d: restore grew from %d to %d records", i, p, len(full[p]), len(restored[p]))
			}
			for r := range restored[p] {
				want, got := full[p][r], restored[p][r]
				if got.Kind != want.Kind || got.Peer != want.Peer || !vector.Eq(got.Stamp, want.Stamp) {
					t.Fatalf("image %d, process %d record %d: torn restore %+v is not a prefix of %+v", i, p, r, got, want)
				}
			}
		}
		if restoredN != fullN-1 {
			t.Fatalf("image %d (%d of %d bytes): torn restore holds %d records, want the %d-record complete prefix", i, len(img), len(shards[0]), restoredN, fullN-1)
		}
	}
}

// TestCollectTimeoutNamesStraggler holds one node's report back: the
// collect timeout error must name the straggler node, not just count it.
func TestCollectTimeoutNamesStraggler(t *testing.T) {
	leakCheck(t)
	g := graph.Path(3)
	dec := decomp.Best(g)
	transports := loopTransports(3)
	programs := map[int]func(*Process) error{
		0: func(p *Process) error { _, err := p.Send(1); return err },
		1: func(p *Process) error { _, err := p.RecvFrom(0); return err },
		2: func(p *Process) error { return nil },
	}
	var collectErr error
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Node: i, Placement: []int{0, 1, 2}, Dec: dec}
			n, err := New(cfg, transports[i])
			if err != nil {
				if i == 0 {
					collectErr = err
				}
				return
			}
			defer n.Close()
			info, err := n.Run(programs)
			if err != nil {
				if i == 0 {
					collectErr = err
				}
				return
			}
			switch i {
			case 0:
				_, collectErr = n.Collect(info, 600*time.Millisecond)
			case 1:
				_ = n.SendReport(0, info)
			case 2:
				// The straggler: never reports.
			}
		}(i)
	}
	wg.Wait()
	if collectErr == nil {
		t.Fatal("collect succeeded though node 2 never reported")
	}
	if !strings.Contains(collectErr.Error(), "still waiting on node(s) [2]") {
		t.Fatalf("timeout error does not name the straggler: %v", collectErr)
	}
}
