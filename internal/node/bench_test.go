package node

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/vector"
)

// benchMatching builds a P-pair matching topology split across two nodes:
// even processes (the senders) on node 0, odd (the receivers) on node 1.
func benchMatching(pairs int) (*decomp.Decomposition, []int) {
	g := graph.New(2 * pairs)
	for i := 0; i < pairs; i++ {
		g.AddEdge(2*i, 2*i+1)
	}
	placement := make([]int, 2*pairs)
	for p := range placement {
		placement[p] = p % 2
	}
	return decomp.Best(g), placement
}

// runNodes runs one node per transport (no collect) and returns each
// node's RunInfo, failing tb on any error.
func runNodes(tb testing.TB, dec *decomp.Decomposition, placement []int, ts []Transport,
	programs map[int]func(*Process) error) []*RunInfo {
	tb.Helper()
	nodes := make([]*Node, len(ts))
	for i := range nodes {
		n, err := New(Config{Node: i, Placement: placement, Dec: dec}, ts[i])
		if err != nil {
			tb.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	infos := make([]*RunInfo, len(ts))
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			infos[i], errs[i] = nodes[i].Run(programs)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("node %d: %v", i, err)
		}
	}
	return infos
}

// benchPrograms has every pair ping-pong rounds times concurrently over the
// single inter-node connection, so concurrent senders share its writes.
func benchPrograms(pairs, rounds int) map[int]func(*Process) error {
	programs := make(map[int]func(*Process) error, 2*pairs)
	for i := 0; i < pairs; i++ {
		sender, receiver := 2*i, 2*i+1
		programs[sender] = func(p *Process) error {
			for k := 0; k < rounds; k++ {
				if _, err := p.Send(receiver); err != nil {
					return err
				}
			}
			return nil
		}
		programs[receiver] = func(p *Process) error {
			for k := 0; k < rounds; k++ {
				if _, err := p.RecvFrom(sender); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return programs
}

// BenchmarkLoopRendezvous measures the full remote rendezvous round trip —
// SYN encode, pipe, merge, ACK, adopt — over the in-memory Loop transport;
// ns/op is per message.
func BenchmarkLoopRendezvous(b *testing.B) {
	const pairs = 8
	dec, placement := benchMatching(pairs)
	rounds := b.N/pairs + 1
	b.ReportAllocs()
	b.ResetTimer()
	runNodes(b, dec, placement, loopTransports(2), benchPrograms(pairs, rounds))
	b.StopTimer()
}

// benchJournalAppend drives b.N appends through a journal from workers
// concurrent goroutines; ns/op is per committed record.
func benchJournalAppend(b *testing.B, workers int) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := JournalRecord{Kind: journalInternal, Proc: 1, Note: "bench"}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := j.Append(rec); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	st := j.Stats()
	b.ReportMetric(float64(st.Appends)/float64(st.Syncs), "records/fsync")
	if err := os.Remove(path); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkJournalAppendGroupCommit(b *testing.B) { benchJournalAppend(b, 8) }

// stampedRecords returns n receive records with d-component stamps whose
// components grow with the record index, the shape of a spill segment.
func stampedRecords(n, d int) []JournalRecord {
	recs := make([]JournalRecord, n)
	stamps := make([]int, n*d)
	for i := range recs {
		stamp := vector.V(stamps[i*d : (i+1)*d : (i+1)*d])
		for k := range stamp {
			stamp[k] = i*(k+1) + k
		}
		recs[i] = JournalRecord{Kind: journalRecv, Proc: i % 7, Peer: (i + 1) % 7, Seq: uint64(i + 1), Stamp: stamp}
	}
	return recs
}

// BenchmarkJournalAppendBatch commits b.N 16-component records in
// 4096-record segments, the collector tree's spill path; ns/op is per
// record, one fsync per segment included.
func BenchmarkJournalAppendBatch(b *testing.B) {
	const segment = 4096
	j, _, err := OpenJournal(filepath.Join(b.TempDir(), "bench.journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	recs := stampedRecords(segment, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += segment {
		if _, err := j.AppendBatch(recs[:min(segment, b.N-done)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalReplay decodes a 4096-record journal image of
// 16-component records in memory; ns/op is per record.
func BenchmarkJournalReplay(b *testing.B) {
	const records = 4096
	img := []byte(journalMagic)
	for _, rec := range stampedRecords(records, 16) {
		var err error
		if img, err = appendRecord(img, &rec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(img)) / records)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += records {
		recs, good, err := decodeJournal(img)
		if err != nil || good != len(img) || len(recs) != records {
			b.Fatalf("replayed %d records in %d of %d bytes: %v", len(recs), good, len(img), err)
		}
	}
}

// TestJournalEncodeZeroAlloc pins the journal's encode path: records are
// encoded straight into the recycled group-commit buffer, so a warm
// AppendBatch allocates per call (the commit's wake-up channel), never per
// record. A reflection or per-record buffer slipping back in makes the
// 4096-record count grow past the budget.
func TestJournalEncodeZeroAlloc(t *testing.T) {
	const budget = 2
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "alloc.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, n := range []int{64, 4096} {
		recs := stampedRecords(n, 16)
		// Warm up: both group-commit buffers grow to the segment's size.
		for i := 0; i < 4; i++ {
			if _, err := j.AppendBatch(recs); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := j.AppendBatch(recs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Fatalf("warm %d-record AppendBatch allocates %.1f objects per call, budget %d", n, allocs, budget)
		}
	}
}

// TestNodeHotPathAllocBudget pins the per-message allocation count of the
// full distributed rendezvous path, node set-up included. A message makes
// about 4.5: the two stamps the logs keep (the receiver's merge and the
// sender's decoded ACK), the sender's pre-send snapshot, the decoded SYN
// vector, and log growth. Each process reuses one reply slot and one
// timer, and each read loop one Frame. The budget leaves room for noise,
// not for a per-send timer (3 allocations), reply channel or decoded Frame
// slipping back into the path.
func TestNodeHotPathAllocBudget(t *testing.T) {
	const (
		pairs    = 4
		rounds   = 200
		budget   = 8.0
		messages = pairs * rounds
	)
	dec, placement := benchMatching(pairs)
	programs := benchPrograms(pairs, rounds)

	// Warm run to populate connection state, then measure.
	run := func() { runNodes(t, dec, placement, loopTransports(2), programs) }
	run()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(messages)
	if perMsg > budget {
		t.Fatalf("distributed rendezvous allocates %.1f objects per message, budget %.0f", perMsg, budget)
	}
	t.Logf("distributed rendezvous: %.1f allocs per message (budget %.0f)", perMsg, budget)
}
