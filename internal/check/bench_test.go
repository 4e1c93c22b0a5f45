package check

import (
	"math/rand"
	"testing"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
)

// clientServerRun stamps a client-server computation, one star group per
// server (d = servers): perClient rounds in which every client sends to a
// server drawn at random. It returns the topology and the records in
// schedule order, each message's server receive before its client send,
// the order tsperf's collect-tree streams them in.
func clientServerRun(tb testing.TB, servers, clients, perClient int) (*DecompTopology, []int, []core.Record) {
	tb.Helper()
	groups := make([]decomp.Group, servers)
	for s := range groups {
		groups[s] = decomp.Group{Kind: decomp.KindStar, Root: s}
		for c := servers; c < servers+clients; c++ {
			groups[s].Edges = append(groups[s].Edges, graph.Edge{U: s, V: c})
		}
	}
	dec, err := decomp.New(servers+clients, groups)
	if err != nil {
		tb.Fatal(err)
	}
	st := core.NewStamper(dec)
	rng := rand.New(rand.NewSource(1))
	var procs []int
	var recs []core.Record
	for round := 0; round < perClient; round++ {
		for c := servers; c < servers+clients; c++ {
			s := rng.Intn(servers)
			stamp, err := st.StampMessage(c, s)
			if err != nil {
				tb.Fatal(err)
			}
			procs = append(procs, s, c)
			recs = append(recs, core.Record{Kind: core.RecordRecv, Peer: c, Stamp: stamp},
				core.Record{Kind: core.RecordSend, Peer: s, Stamp: stamp})
		}
	}
	return NewDecompTopology(dec), procs, recs
}

// BenchmarkShardVerifierIngest is one shard verifier's cost per record on
// d = 16 client-server stamps, the collector tree's per-record check. Each
// pass over the run starts a fresh verifier, as each collect does.
func BenchmarkShardVerifierIngest(b *testing.B) {
	topo, procs, recs := clientServerRun(b, 16, 1000, 10)
	var v *ShardVerifier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(recs)
		if k == 0 {
			v = NewShardVerifier(topo, 0)
		}
		_ = v.Ingest(procs[k], recs[k]) // held for the check below
	}
	b.StopTimer()
	if err := v.Err(); err != nil {
		b.Fatal(err)
	}
}
