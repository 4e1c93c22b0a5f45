package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/load"
	"syncstamp/internal/node"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// treeBench is collect-tree: the records of a client-server computation,
// stamped during set-up, streamed from one goroutine into a fresh 4-leaf
// spilling collector tree per iteration (tsload -leaves 4 -spill-dir). The
// node runtime does no work here, so this workload is the control for
// runtime changes and the target for collector changes.
type treeBench struct {
	seed                        int64
	servers, clients, perClient int

	topo *load.Topology
	dec  *decomp.Decomposition
	// The stamped input, message k being msgs[k] with stamp
	// stamps[k*d:(k+1)*d]. Neither array holds a pointer, so the garbage
	// collector never marks the input: its cycles cost what the tree's own
	// allocations cost, as they would in a collector fed over the wire.
	msgs   []message
	stamps []int
}

type message struct{ client, server int32 }

// zipfTheta skews server popularity as tsload's default workload does.
const zipfTheta = 0.9

func newCollectTree(o options) bench {
	b := &treeBench{seed: o.seed, servers: 16, clients: 20000, perClient: 10}
	if o.quick {
		b.clients, b.perClient = 200, 5
	}
	return b
}

func (b *treeBench) sizes() map[string]int {
	return map[string]int{"servers": b.servers, "clients": b.clients, "messages_per_client": b.perClient, "leaves": treeLeaves, "segment_records": treeSegment}
}

// setup builds the topology and its decomposition, draws the seeded
// schedule — per-client Poisson arrivals merged by due time, servers
// picked by Zipf popularity, as tsload's driver draws them — and stamps
// every message with core.Stamper in schedule order.
func (b *treeBench) setup() (time.Duration, error) {
	t := time.Now()
	topo := load.NewTopology(b.servers, b.clients)
	dec := topo.Decomposition()
	st := core.NewStamper(dec)
	skew := graph.NewSkew(b.servers, zipfTheta)
	rng := rand.New(rand.NewSource(b.seed))
	type event struct {
		due float64
		message
	}
	evs := make([]event, 0, b.clients*b.perClient)
	for c := 0; c < b.clients; c++ {
		at := 0.0
		for i := 0; i < b.perClient; i++ {
			at += rng.ExpFloat64()
			evs = append(evs, event{at, message{int32(b.servers + c), int32(skew.Pick(rng.Float64()))}})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].due < evs[j].due })
	msgs := make([]message, len(evs))
	stamps := make([]int, 0, len(evs)*topo.D())
	for k, e := range evs {
		v, err := st.StampMessage(int(e.client), int(e.server))
		if err != nil {
			return 0, err
		}
		msgs[k] = e.message
		stamps = append(stamps, v...)
	}
	b.topo, b.dec, b.msgs, b.stamps = topo, dec, msgs, stamps
	return time.Since(t), nil
}

// records expands the first n messages into the records the tree
// ingests: the server's receive, then the client's send, of each.
func (b *treeBench) records(n int) []procRecord {
	recs := make([]procRecord, 0, 2*n)
	for k, m := range b.msgs[:n] {
		recv, send := b.halves(k, m)
		recs = append(recs, recv, send)
	}
	return recs
}

// halves returns message k's two records, sharing its stamp.
func (b *treeBench) halves(k int, m message) (recv, send procRecord) {
	d := b.topo.D()
	v := vector.V(b.stamps[k*d : (k+1)*d : (k+1)*d])
	return procRecord{int(m.server), csp.Record{Kind: csp.RecordRecv, Peer: int(m.client), Stamp: v}},
		procRecord{int(m.client), csp.Record{Kind: csp.RecordSend, Peer: int(m.server), Stamp: v}}
}

func (b *treeBench) iterate(it *iteration) (err error) {
	msgs := b.msgs[:len(b.msgs)/it.scale]
	it.msgs = len(msgs)
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer removeAll(dir, &err)
	spill := filepath.Join(dir, "spill")
	tree, err := newTree(b.topo, spill)
	if err != nil {
		return err
	}
	lat := make([]int64, 0, it.msgs)
	var ingest []int64
	if it.traced {
		ingest = make([]int64, 0, 2*it.msgs)
	}

	win := openWindow()
	for k, m := range msgs {
		recv, send := b.halves(k, m)
		if it.corrupt && k == 0 {
			recv.rec.Stamp = corrupted(recv.rec.Stamp)
		}
		// Ingest never fails; the tree reports problems in its verdict.
		t := time.Now()
		_ = tree.Ingest(recv.proc, recv.rec)
		if it.traced {
			mid := time.Now()
			_ = tree.Ingest(send.proc, send.rec)
			end := time.Now()
			ingest = append(ingest, int64(mid.Sub(t)), int64(end.Sub(mid)))
			lat = append(lat, int64(end.Sub(t)))
			continue
		}
		_ = tree.Ingest(send.proc, send.rec)
		lat = append(lat, int64(time.Since(t)))
	}
	t := time.Now()
	v, err := tree.Finish()
	it.verdict = time.Since(t)
	it.win = win.close()
	if err != nil {
		return err
	}
	it.lat = lat
	it.bytes = v.SpillBytes
	if !v.OK || v.Records != int64(2*it.msgs) || v.Messages != int64(it.msgs) {
		return fmt.Errorf("%w: tree verdict ok=%v records=%d messages=%d, want %d messages: %v",
			errVerify, v.OK, v.Records, v.Messages, it.msgs, v.Problems)
	}
	if !it.traced {
		return nil
	}
	l, n := it.layers, float64(it.msgs)
	treeLayers(l, v, ingest, it.verdict)
	l["journal.appends_per_msg"] = float64(v.Records) / n
	if v.SegmentsSpilled > 0 {
		l["journal.records_per_fsync"] = float64(v.Records) / float64(v.SegmentsSpilled)
	}
	if !it.probe {
		return nil
	}
	return b.probeLayers(it, b.records(it.msgs), spill, dir)
}

// probeLayers replays the iteration's records through the layers the
// workload exercises (the shard verifier and the spill journal) and
// through the stamper and the codec, which it does not, so those layers'
// costs are known on this workload's vectors too.
func (b *treeBench) probeLayers(it *iteration, recs []procRecord, spill, dir string) error {
	l, n := it.layers, float64(it.msgs)
	tr := &trace.Trace{N: b.topo.N()}
	for k := 0; k < len(recs); k += 2 {
		tr.MustAppend(trace.Message(recs[k+1].proc, recs[k].proc))
	}
	stampNS, err := probeStamp(tr, b.dec)
	if err != nil {
		return err
	}
	l["core.stamp_ns_per_msg"] = stampNS

	stream, err := reportStream(recs, b.topo.D())
	if err != nil {
		return err
	}
	if l["wire.encode_ns_per_frame"], l["wire.decode_ns_per_frame"], err = probeWire([][]byte{stream}, b.topo.D(), false); err != nil {
		return err
	}

	verifyNS, err := probeVerify(b.topo, recs)
	if err != nil {
		return err
	}
	l["check.verify_ns_per_record"] = verifyNS

	if l["journal.fsync_us"], err = probeFsync(dir); err != nil {
		return err
	}
	shards, err := spillRecords(spill)
	if err != nil {
		return err
	}
	for i := range shards {
		shards[i] = shards[i][:min(len(shards[i]), batchProbeSegments*treeSegment)]
	}
	appendUS, bytesPer, err := probeAppendBatch(dir, shards)
	if err != nil {
		return err
	}
	l["journal.append_us"] = appendUS
	l["journal.bytes_per_record"] = bytesPer

	t := time.Now()
	logs, err := node.ReadSpill(spill, treeLeaves, b.topo.N())
	if err != nil {
		return err
	}
	l["journal.restore_us_per_record"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(recs))
	want := make([]int, b.topo.N())
	for _, r := range recs {
		want[r.proc]++
	}
	for p, log := range logs {
		if len(log) != want[p] {
			return fmt.Errorf("%w: spill restored %d records of process %d, the tree ingested %d", errVerify, len(log), p, want[p])
		}
	}

	recsPerMsg := float64(len(recs)) / n
	l["ledger.layer_us_per_msg"] = recsPerMsg * (verifyNS/1e3 + appendUS)
	return nil
}
