package check

import (
	"strings"
	"testing"

	"syncstamp/internal/core"
	"syncstamp/internal/trace"
	"syncstamp/internal/wire"
)

// logsFromTrace builds per-process rendezvous logs carrying the sequential
// replay oracle's own stamps — exactly what a correct distributed run
// delivers to a collector.
func logsFromTrace(t *testing.T, in *Input) [][]core.Record {
	t.Helper()
	stamps, err := core.StampTrace(in.Trace, in.Dec)
	if err != nil {
		t.Fatalf("seed %d: StampTrace: %v", in.Seed, err)
	}
	logs := make([][]core.Record, in.Topo.N())
	mi := 0
	for _, op := range in.Trace.Ops {
		switch op.Kind {
		case trace.OpMessage:
			s := stamps[mi]
			mi++
			logs[op.From] = append(logs[op.From], core.Record{Kind: core.RecordSend, Peer: op.To, Stamp: s})
			logs[op.To] = append(logs[op.To], core.Record{Kind: core.RecordRecv, Peer: op.From, Stamp: s})
		case trace.OpInternal:
			logs[op.Proc] = append(logs[op.Proc], core.Record{Kind: core.RecordInternal, Note: "tick"})
		}
	}
	return logs
}

// treeVerdict shards the logs proc % leaves, streams each shard through its
// own verifier, and combines the summaries at the root.
func treeVerdict(topo Topology, leaves int, logs [][]core.Record) *wire.Verdict {
	vers := make([]*ShardVerifier, leaves)
	for i := range vers {
		vers[i] = NewShardVerifier(topo, i)
	}
	for p, log := range logs {
		v := vers[p%leaves]
		for _, rec := range log {
			_ = v.Ingest(p, rec)
		}
	}
	sums := make([]*wire.ShardSummary, leaves)
	for i, v := range vers {
		sums[i] = v.Summary()
	}
	return CombineSummaries(topo, leaves, sums)
}

// TestIncrementalMatchesSequentialReplay sweeps generated computations: a
// shard-verified collector tree must pass exactly the runs the sequential
// replay stamps, with matching message totals, at several tree widths.
func TestIncrementalMatchesSequentialReplay(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		in := GenInput(seed, Config{})
		logs := logsFromTrace(t, in)
		topo := NewDecompTopology(in.Dec)
		for _, leaves := range []int{1, 2, 5} {
			v := treeVerdict(topo, leaves, logs)
			if !v.OK {
				t.Fatalf("seed %d leaves %d: clean run rejected: %v", seed, leaves, v.Problems)
			}
			if int(v.Messages) != in.Trace.NumMessages() {
				t.Fatalf("seed %d leaves %d: verdict counts %d messages, trace has %d", seed, leaves, v.Messages, in.Trace.NumMessages())
			}
			wantRecords := uint64(2*in.Trace.NumMessages() + in.Trace.NumInternal())
			if v.Records != wantRecords {
				t.Fatalf("seed %d leaves %d: verdict counts %d records, want %d", seed, leaves, v.Records, wantRecords)
			}
		}
	}
}

// pickStarMessage finds a log position holding a send on a star group, so
// mutations can target records the density invariant guards.
func pickStarMessage(topo Topology, logs [][]core.Record) (proc, idx int, ok bool) {
	for p, log := range logs {
		for i, rec := range log {
			if rec.Kind != core.RecordSend {
				continue
			}
			g, covered := topo.GroupOf(p, rec.Peer)
			if covered && topo.StarRoot(g) >= 0 {
				return p, i, true
			}
		}
	}
	return 0, 0, false
}

// cloneLogs deep-copies logs so a mutation cannot leak through the shared
// stamp slices both halves of a rendezvous carry.
func cloneLogs(logs [][]core.Record) [][]core.Record {
	out := make([][]core.Record, len(logs))
	for p, log := range logs {
		out[p] = make([]core.Record, len(log))
		for i, rec := range log {
			out[p][i] = rec
			if rec.Stamp != nil {
				out[p][i].Stamp = rec.Stamp.Clone()
			}
		}
	}
	return out
}

// TestIncrementalDetectsCorruption flips the verdict with three targeted
// mutations of otherwise-correct logs: a corrupted stamp half, a dropped
// receive half, and a message erased from both sides of a star group.
func TestIncrementalDetectsCorruption(t *testing.T) {
	found := 0
	for seed := int64(0); seed < 200 && found < 10; seed++ {
		in := GenInput(seed, Config{})
		if in.Trace.NumMessages() == 0 {
			continue
		}
		logs := logsFromTrace(t, in)
		topo := NewDecompTopology(in.Dec)
		p, i, ok := pickStarMessage(topo, logs)
		if !ok {
			continue
		}
		found++

		corrupt := cloneLogs(logs)
		corrupt[p][i].Stamp[len(corrupt[p][i].Stamp)-1] += 3
		if v := treeVerdict(topo, 3, corrupt); v.OK {
			t.Fatalf("seed %d: corrupted stamp half accepted", seed)
		}

		peer := logs[p][i].Peer
		stamp := logs[p][i].Stamp
		dropRecv := cloneLogs(logs)
		for j, rec := range dropRecv[peer] {
			if rec.Kind == core.RecordRecv && rec.Peer == p && vectorEq(rec.Stamp, stamp) {
				dropRecv[peer] = append(dropRecv[peer][:j], dropRecv[peer][j+1:]...)
				break
			}
		}
		if v := treeVerdict(topo, 3, dropRecv); v.OK {
			t.Fatalf("seed %d: dropped receive half accepted", seed)
		}

		dropBoth := cloneLogs(logs)
		dropBoth[p] = append(dropBoth[p][:i], dropBoth[p][i+1:]...)
		for j, rec := range dropBoth[peer] {
			if rec.Kind == core.RecordRecv && rec.Peer == p && vectorEq(rec.Stamp, stamp) {
				dropBoth[peer] = append(dropBoth[peer][:j], dropBoth[peer][j+1:]...)
				break
			}
		}
		if v := treeVerdict(topo, 3, dropBoth); v.OK {
			t.Fatalf("seed %d: star-group message erased from both sides accepted", seed)
		}
	}
	if found == 0 {
		t.Fatal("sweep produced no star-group messages to mutate")
	}
}

func vectorEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCombineNamesMissingShard drops one leaf's summary entirely — the
// crashed-leaf case — and requires the root to name the missing shard.
func TestCombineNamesMissingShard(t *testing.T) {
	in := GenInput(7, Config{})
	logs := logsFromTrace(t, in)
	topo := NewDecompTopology(in.Dec)
	const leaves = 4
	vers := make([]*ShardVerifier, leaves)
	for i := range vers {
		vers[i] = NewShardVerifier(topo, i)
	}
	for p, log := range logs {
		for _, rec := range log {
			_ = vers[p%leaves].Ingest(p, rec)
		}
	}
	sums := make([]*wire.ShardSummary, leaves)
	for i, v := range vers {
		if i == 2 {
			continue // leaf 2 crashed before its roll-up
		}
		sums[i] = v.Summary()
	}
	v := CombineSummaries(topo, leaves, sums)
	if v.OK {
		t.Fatal("verdict OK despite a missing shard")
	}
	hit := false
	for _, p := range v.Problems {
		if strings.Contains(p, "shard 2 missing") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no problem names the missing shard: %v", v.Problems)
	}
}

// TestShardVerifierChainChecks drives the verifier directly through its
// per-record invariants: stamp regression, stalled group component, and
// star-root jumps all fail at ingest with the first error held.
func TestShardVerifierChainChecks(t *testing.T) {
	// A fresh verifier starts every process at the zero vector, so the
	// probe record must come from a non-root process (a root's first stamp
	// on its group is pinned to component 1 by density).
	var topo *DecompTopology
	var logs [][]core.Record
	p, i, g := 0, 0, 0
	ok := false
	for seed := int64(0); seed < 100 && !ok; seed++ {
		in := GenInput(seed, Config{})
		logs = logsFromTrace(t, in)
		topo = NewDecompTopology(in.Dec)
		for lp, log := range logs {
			for li, rec := range log {
				if rec.Kind != core.RecordSend {
					continue
				}
				lg, covered := topo.GroupOf(lp, rec.Peer)
				if covered && topo.StarRoot(lg) >= 0 && topo.StarRoot(lg) != lp && rec.Stamp[lg] > 1 {
					p, i, g, ok = lp, li, lg, true
				}
			}
		}
	}
	if !ok {
		t.Fatal("sweep produced no non-root star sender to probe")
	}
	rec := logs[p][i]

	v := NewShardVerifier(topo, 0)
	if err := v.Ingest(p, rec); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	// The same stamp again: the group component must strictly advance.
	if err := v.Ingest(p, rec); err == nil {
		t.Fatal("repeated stamp accepted")
	}
	if v.Err() == nil {
		t.Fatal("error not sticky")
	}

	v = NewShardVerifier(topo, 0)
	high := rec.Stamp.Clone()
	high[g] += 5
	if err := v.Ingest(p, core.Record{Kind: core.RecordSend, Peer: rec.Peer, Stamp: high}); err != nil {
		t.Fatalf("ingest high stamp: %v", err)
	}
	if err := v.Ingest(p, rec); err == nil {
		t.Fatal("stamp regression accepted")
	}

	// A root jumping its own group's component is a density violation even
	// though the component advances.
	root, rootIdx, okRoot := 0, 0, false
	for rp, log := range logs {
		for ri, r := range log {
			if r.Kind == core.RecordInternal {
				continue
			}
			if rg, covered := topo.GroupOf(rp, r.Peer); covered && topo.StarRoot(rg) == rp {
				root, rootIdx, okRoot = rp, ri, true
			}
		}
	}
	if okRoot {
		r := logs[root][rootIdx]
		jump := r.Stamp.Clone()
		rg, _ := topo.GroupOf(root, r.Peer)
		jump[rg] += 7
		v = NewShardVerifier(topo, 0)
		if err := v.Ingest(root, core.Record{Kind: r.Kind, Peer: r.Peer, Stamp: jump}); err == nil || !strings.Contains(err.Error(), "densely") {
			t.Fatalf("root jump not caught as density violation: %v", err)
		}
	}
}
