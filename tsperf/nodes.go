package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/fault"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// The node workloads run two in-process nodes that talk over real
// localhost TCP: one data connection between them, plus the report
// connection while collecting. Every node is configured as cmd/tsnode
// configures it by default — fail-stop, coalescing, a 4096-event flight
// recorder, 10 s handshake and rendezvous deadlines — plus the flags the
// workload names (-journal, or -async with -on-peer-loss wait).

const (
	flightEvents   = 4096
	reconnectWait  = 10 * time.Second
	collectTimeout = 60 * time.Second
	// lossRate is pairs-lossy's injected drop probability on every link.
	lossRate = 0.02
)

type opKind uint8

const (
	opSend opKind = iota
	opRecvFrom
	opRecv
	opInternal
)

type op struct {
	kind opKind
	peer int
}

// shape is one node workload's computation: the decomposition its clocks
// run under, where each process lives, and each process's script.
type shape struct {
	dec       *decomp.Decomposition
	placement []int
	scripts   [][]op
	msgs      int
}

// pairsShape is P independent channel pairs, the sender of each on node 0
// and the receiver on node 1, every pair running R rendezvous. The seed
// draws how often each sender records an internal event, which the
// collect and verify path must place.
func pairsShape(pairs, rounds int, rng *rand.Rand) *shape {
	g := graph.New(2 * pairs)
	for i := 0; i < pairs; i++ {
		g.AddEdge(2*i, 2*i+1)
	}
	sh := &shape{dec: decomp.Best(g), placement: make([]int, 2*pairs), scripts: make([][]op, 2*pairs), msgs: pairs * rounds}
	for p := range sh.placement {
		sh.placement[p] = p % 2
	}
	for i := 0; i < pairs; i++ {
		s, r := 2*i, 2*i+1
		every := 16 + rng.Intn(49)
		for k := 0; k < rounds; k++ {
			if k > 0 && k%every == 0 {
				sh.scripts[s] = append(sh.scripts[s], op{opInternal, 0})
			}
			sh.scripts[s] = append(sh.scripts[s], op{opSend, r})
			sh.scripts[r] = append(sh.scripts[r], op{opRecvFrom, s})
		}
	}
	return sh
}

// starShape is a client-server computation: the servers and the first
// half of the clients on node 0, the other half on node 1. Each client
// sends K messages to servers the seed draws; servers take them with the
// any-source Recv, so they are contended by clients on both paths, the
// local mailbox and the TCP stream.
func starShape(servers, clients, sends int, rng *rand.Rand) *shape {
	n := servers + clients
	sh := &shape{dec: decomp.Best(graph.ClientServer(servers, clients, false)), placement: make([]int, n), scripts: make([][]op, n), msgs: clients * sends}
	for c := 0; c < clients; c++ {
		p := servers + c
		if c >= clients/2 {
			sh.placement[p] = 1
		}
		for k := 0; k < sends; k++ {
			s := rng.Intn(servers)
			sh.scripts[p] = append(sh.scripts[p], op{opSend, s})
			sh.scripts[s] = append(sh.scripts[s], op{opRecv, 0})
		}
	}
	return sh
}

// nodeBench is one node workload.
type nodeBench struct {
	seed  int64
	build func(rng *rand.Rand, scale int) *shape
	size  map[string]int
	// durable gives every node a crash-recovery journal (tsnode -journal);
	// lossy runs the async synchronizer over the fault injector's lossy
	// links (tsnode -async -on-peer-loss wait -fault-plan).
	durable, lossy bool
}

func newPairsTCP(o options) bench {
	pairs, rounds := 32, 1500
	if o.quick {
		pairs, rounds = 4, 40
	}
	return &nodeBench{
		seed:  o.seed,
		build: func(rng *rand.Rand, scale int) *shape { return pairsShape(pairs, rounds/scale, rng) },
		size:  map[string]int{"nodes": 2, "pairs": pairs, "rounds": rounds},
	}
}

func newStarDurable(o options) bench {
	servers, clients, sends := 4, 32, 300
	if o.quick {
		servers, clients, sends = 2, 4, 20
	}
	return &nodeBench{
		seed:    o.seed,
		build:   func(rng *rand.Rand, scale int) *shape { return starShape(servers, clients, sends/scale, rng) },
		size:    map[string]int{"nodes": 2, "servers": servers, "clients": clients, "sends_per_client": sends},
		durable: true,
	}
}

func newPairsLossy(o options) bench {
	pairs, rounds := 16, 1500
	if o.quick {
		pairs, rounds = 2, 40
	}
	return &nodeBench{
		seed:  o.seed,
		build: func(rng *rand.Rand, scale int) *shape { return pairsShape(pairs, rounds/scale, rng) },
		size:  map[string]int{"nodes": 2, "pairs": pairs, "rounds": rounds, "drop_per_mille": int(lossRate * 1000)},
		lossy: true,
	}
}

func (b *nodeBench) setup() (time.Duration, error) { return 0, nil }

func (b *nodeBench) sizes() map[string]int { return b.size }

// cluster is one iteration's pair of nodes and what was wrapped around
// them.
type cluster struct {
	nodes    [2]*node.Node
	journals [2]*node.Journal
	faults   [2]*fault.Transport
	counts   [2]*countingTransport
	obs      [2]*obs.Obs
	data     []*countingConn // the data connections, once Run returned
}

// start builds the transports, journals and nodes of one iteration.
func (b *nodeBench) start(sh *shape, dir string, seed int64, traced bool) (*cluster, error) {
	c := &cluster{}
	var tcps [2]*node.TCPTransport
	addrs := make([]string, 2)
	for i := range tcps {
		t, err := node.NewTCPTransport("127.0.0.1:0")
		if err != nil {
			for _, t := range tcps[:i] {
				_ = t.Close() // listener only; nothing to flush
			}
			return nil, err
		}
		tcps[i] = t
		addrs[i] = t.Addr()
	}
	var trs [2]node.Transport
	for i, t := range tcps {
		t.SetPeers(addrs)
		trs[i] = t
	}
	var rec [2]*node.RecoveryConfig
	if b.lossy {
		plan := &fault.Plan{Seed: seed, Links: []fault.LinkFault{{From: -1, To: -1, Drop: lossRate}}}
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		for i := range trs {
			c.faults[i] = fault.New(trs[i], plan, i)
			trs[i] = c.faults[i]
			rec[i] = &node.RecoveryConfig{
				OnPeerLoss:      node.PeerLossWait,
				ReconnectWindow: reconnectWait,
				Async:           &tssync.Config{Seed: seed},
			}
		}
	}
	if traced {
		for i := range trs {
			c.counts[i] = &countingTransport{inner: trs[i]}
			trs[i] = c.counts[i]
			c.obs[i] = &obs.Obs{Metrics: obs.NewRegistry(), Clock: obs.Wall()}
		}
	}
	for i := range c.nodes {
		if b.durable {
			j, _, err := node.OpenJournal(filepath.Join(dir, fmt.Sprintf("node%d.journal", i)))
			if err != nil {
				c.close()
				closeTransports(trs[i:])
				return nil, err
			}
			c.journals[i] = j
			rec[i] = &node.RecoveryConfig{OnPeerLoss: node.PeerLossAbort, ReconnectWindow: reconnectWait, Journal: j}
		}
		nd, err := node.New(node.Config{
			Node:           i,
			Placement:      sh.placement,
			Dec:            sh.dec,
			Obs:            c.obs[i],
			FlightRecorder: flightEvents,
			Recovery:       rec[i],
		}, trs[i])
		if err != nil {
			c.close()
			closeTransports(trs[i:])
			return nil, err
		}
		c.nodes[i] = nd
	}
	return c, nil
}

func closeTransports(trs []node.Transport) {
	for _, t := range trs {
		_ = t.Close() // listeners only; nothing to flush
	}
}

// close stops both nodes and closes the journals; safe to call twice.
func (c *cluster) close() {
	for i, n := range c.nodes {
		if n != nil {
			n.Close()
			c.nodes[i] = nil
		}
	}
	for i, j := range c.journals {
		if j != nil {
			_ = j.Close() // every Append returned durable; nothing to flush
			c.journals[i] = nil
		}
	}
}

// run executes the programs on both nodes concurrently.
func (c *cluster) run(progs [2]map[int]func(*node.Process) error) ([2]*node.RunInfo, error) {
	var infos [2]*node.RunInfo
	var errs [2]error
	var wg sync.WaitGroup
	for i := range c.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			infos[i], errs[i] = c.nodes[i].Run(progs[i])
		}(i)
	}
	wg.Wait()
	if c.counts[0] != nil {
		c.data = append(c.counts[0].snapshot(), c.counts[1].snapshot()...)
	}
	for _, err := range errs {
		if err != nil {
			return infos, err
		}
	}
	return infos, nil
}

// collect streams node 1's report to node 0 while node 0 collects, as
// "tsnode -collect" and its peers do.
func (c *cluster) collect(infos [2]*node.RunInfo) (*csp.Result, error) {
	var repErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		repErr = c.nodes[1].SendReport(0, infos[1])
	}()
	res, err := c.nodes[0].Collect(infos[0], collectTimeout)
	if err != nil {
		c.close() // unblocks a report still writing to a collector that gave up
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return res, repErr
}

// timing is what the programs measured from the calling side.
type timing struct {
	send   [][]int64 // per process, nanoseconds per Send
	recvNS []int64   // per process, total nanoseconds in Recv/RecvFrom (traced only)
}

// programs turns scripts into node programs that time every Send, and in
// the traced pass every receive. Each process appends only to its own
// preallocated slice.
func programs(sh *shape, traced bool) ([2]map[int]func(*node.Process) error, *timing) {
	tm := &timing{send: make([][]int64, len(sh.scripts)), recvNS: make([]int64, len(sh.scripts))}
	progs := [2]map[int]func(*node.Process) error{{}, {}}
	for p, script := range sh.scripts {
		sends := 0
		for _, o := range script {
			if o.kind == opSend {
				sends++
			}
		}
		tm.send[p] = make([]int64, 0, sends)
		progs[sh.placement[p]][p] = func(proc *node.Process) error {
			for _, o := range script {
				t := time.Now()
				var err error
				switch o.kind {
				case opSend:
					_, err = proc.Send(o.peer)
					tm.send[p] = append(tm.send[p], int64(time.Since(t)))
				case opRecvFrom:
					_, err = proc.RecvFrom(o.peer)
				case opRecv:
					_, err = proc.Recv()
				case opInternal:
					proc.Internal("tick")
				}
				if err != nil {
					return err
				}
				if traced && (o.kind == opRecv || o.kind == opRecvFrom) {
					tm.recvNS[p] += int64(time.Since(t))
				}
			}
			return nil
		}
	}
	return progs, tm
}

// verifyStamps is the run's correctness check: the collected trace has
// every message, and its stamps equal the sequential Figure 5 replay's.
func verifyStamps(tr *trace.Trace, stamps []vector.V, dec *decomp.Decomposition, want int) error {
	if got := tr.NumMessages(); got != want {
		return fmt.Errorf("%w: collected %d messages, the workload sent %d", errVerify, got, want)
	}
	seq, err := core.StampTrace(tr, dec)
	if err != nil {
		return fmt.Errorf("%w: %v", errVerify, err)
	}
	if len(seq) != len(stamps) {
		return fmt.Errorf("%w: %d collected stamps, sequential replay %d", errVerify, len(stamps), len(seq))
	}
	for m := range seq {
		if !vector.Eq(seq[m], stamps[m]) {
			return fmt.Errorf("%w: message %d: collected stamp %v, sequential replay %v", errVerify, m, stamps[m], seq[m])
		}
	}
	return nil
}

// corrupted returns a copy of a stamp with one component altered.
func corrupted(v vector.V) vector.V {
	c := v.Clone()
	c[0]++
	return c
}

// iterSeed derives an iteration's seed from the run's. Each iteration
// draws its own shape, fault pattern and jitter, so a run's medians
// average over many draws instead of repeating one, and equal run seeds
// still give equal inputs.
func iterSeed(seed int64, index int) int64 { return seed*1_000_003 + int64(index) }

func (b *nodeBench) iterate(it *iteration) (err error) {
	t0 := time.Now()
	seed := iterSeed(b.seed, it.index)
	sh := b.build(rand.New(rand.NewSource(seed)), it.scale)
	it.msgs = sh.msgs
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer removeAll(dir, &err)
	c, err := b.start(sh, dir, seed, it.traced)
	if err != nil {
		return err
	}
	defer c.close()
	progs, tm := programs(sh, it.traced)
	it.setup = time.Since(t0)

	win := openWindow()
	infos, err := c.run(progs)
	it.win = win.close()
	if err != nil {
		return err
	}
	var frames wire.Stats
	for _, info := range infos {
		frames.Merge(info.Frames)
	}
	_, wireBytes := frames.Total()
	it.bytes = int64(wireBytes)
	for _, l := range tm.send {
		it.lat = append(it.lat, l...)
	}
	if it.traced {
		// Before collecting: Collect folds node 1's registry into node 0's.
		b.countLayers(it, c, infos, frames, tm)
	}

	t := time.Now()
	res, err := c.collect(infos)
	if err != nil {
		return err
	}
	collected := time.Since(t)
	stamps := res.Stamps
	if it.corrupt {
		stamps = append([]vector.V{corrupted(stamps[0])}, stamps[1:]...)
	}
	if err := verifyStamps(res.Trace, stamps, sh.dec, sh.msgs); err != nil {
		return err
	}
	it.verdict = time.Since(t)
	if !it.probe {
		return nil
	}
	return b.probeLayers(it, sh, c, infos, res, frames, collected, dir)
}

// countLayers fills the per-layer metrics every traced iteration reads
// from counters: RunInfo, the obs registries, the fault injector and the
// counting transport.
func (b *nodeBench) countLayers(it *iteration, c *cluster, infos [2]*node.RunInfo, frames wire.Stats, tm *timing) {
	l, n := it.layers, float64(it.msgs)
	dataFrames, _ := frames.Total()
	l["wire.frames_per_msg"] = float64(dataFrames) / n
	l["wire.syn_bytes_per_msg"] = float64(frames.Bytes[wire.KindSyn]) / n
	l["wire.ack_bytes_per_msg"] = float64(frames.Bytes[wire.KindAck]) / n

	ct := totals(c.data)
	if ct.writes > 0 {
		l["transport.writes_per_msg"] = float64(ct.writes) / n
		l["transport.frames_per_write"] = float64(dataFrames) / float64(ct.writes)
		l["transport.bytes_per_write"] = float64(ct.wbytes) / float64(ct.writes)
	}
	l["transport.reads_per_msg"] = float64(ct.reads) / n
	l["transport.write_cpu_share"] = float64(ct.writeNS) / float64(it.win.cpu().Nanoseconds())

	var sendNS, recvNS int64
	for _, ls := range tm.send {
		for _, v := range ls {
			sendNS += v
		}
	}
	for _, v := range tm.recvNS {
		recvNS += v
	}
	var sendBlock, synAck, recvBlock int64
	for _, o := range c.obs {
		h := o.Metrics.Snapshot().Histograms
		sendBlock += h[obs.MetricSendBlockNS].Sum
		synAck += h[obs.MetricSynAckNS].Sum
		recvBlock += h[obs.MetricRecvBlockNS].Sum
	}
	l["rendezvous.send_block_share"] = float64(sendBlock) / float64(sendNS)
	l["rendezvous.synack_share"] = float64(synAck) / float64(sendNS)
	if recvNS > 0 {
		l["rendezvous.recv_block_share"] = float64(recvBlock) / float64(recvNS)
	}

	var retrans, spurious, dedup, suspicions, appends, syncs int64
	var ratios []float64
	for _, info := range infos {
		retrans += info.Retransmits
		spurious += info.Spurious
		dedup += info.Deduped
		suspicions += info.Suspicions
		appends += info.JournalAppends
		syncs += info.JournalSyncs
		for _, st := range info.PeerRTT {
			if st.SRTTNS > 0 {
				ratios = append(ratios, float64(st.RTONS)/float64(st.SRTTNS))
			}
		}
	}
	l["sync.retransmits_per_msg"] = float64(retrans) / n
	if retrans > 0 {
		l["sync.spurious_share"] = float64(spurious) / float64(retrans)
	}
	l["sync.dedup_per_msg"] = float64(dedup) / n
	l["sync.suspicions"] = float64(suspicions)
	l["sync.rto_srtt_ratio"] = median(ratios)
	var drops int64
	for _, f := range c.faults {
		if f != nil {
			drops += f.Stats().Dropped
		}
	}
	l["fault.drops_per_msg"] = float64(drops) / n
	l["journal.appends_per_msg"] = float64(appends) / n
	if syncs > 0 {
		l["journal.records_per_fsync"] = float64(appends) / float64(syncs)
	}
}

// probeLayers replays the iteration's outputs through each layer's public
// functions: the stamper over the collected trace, the codec over the
// captured data streams, reconstruction over the logs, the collector tree
// and shard verifier over the records, and the journal over the records
// the tree spilled (and, on star-durable, node 0's own journal).
func (b *nodeBench) probeLayers(it *iteration, sh *shape, c *cluster, infos [2]*node.RunInfo, res *csp.Result, frames wire.Stats, collected time.Duration, dir string) error {
	l, n := it.layers, float64(it.msgs)
	stampNS, err := probeStamp(res.Trace, sh.dec)
	if err != nil {
		return err
	}
	l["core.stamp_ns_per_msg"] = stampNS

	encNS, decNS, err := probeWire(totals(c.data).streams, sh.dec.D(), b.durable || b.lossy)
	if err != nil {
		return err
	}
	l["wire.encode_ns_per_frame"] = encNS
	l["wire.decode_ns_per_frame"] = decNS

	logs := make([][]csp.Record, sh.dec.N())
	for _, info := range infos {
		for p, log := range info.Logs {
			logs[p] = log
		}
	}
	t := time.Now()
	if _, err := csp.Reconstruct(sh.dec, logs); err != nil {
		return err
	}
	reconstruct := time.Since(t)
	verify := it.verdict - collected
	l["collect.report_share"] = max(0, (collected-reconstruct).Seconds()) / it.verdict.Seconds()
	l["collect.reconstruct_share"] = reconstruct.Seconds() / it.verdict.Seconds()
	l["collect.verify_share"] = verify.Seconds() / it.verdict.Seconds()

	topo := check.NewDecompTopology(sh.dec)
	recs := interleave(logs)
	spill := filepath.Join(dir, "spill")
	if err := probeTree(l, topo, recs, spill); err != nil {
		return err
	}
	verifyNS, err := probeVerify(topo, recs)
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
	// One appender per process node 0 hosts, each replaying its process's
	// records in order, capped so the fsync-bound probe stays short.
	local := infos[0].Logs
	per := appendProbeRecords / len(local)
	byProc := map[int][]node.JournalRecord{}
	for _, shard := range shards {
		for _, r := range shard {
			if _, ok := local[r.Proc]; ok && len(byProc[r.Proc]) < per {
				byProc[r.Proc] = append(byProc[r.Proc], r)
			}
		}
	}
	probe := filepath.Join(dir, "append.journal")
	appendUS, bytesPer, err := probeAppend(probe, byProc)
	if err != nil {
		return err
	}
	l["journal.append_us"] = appendUS
	l["journal.bytes_per_record"] = bytesPer

	// Restore node 0's own journal where the workload keeps one, else the
	// probe journal, into a fresh node 0.
	want := map[int]int{}
	path := probe
	if b.durable {
		c.close() // release the journals before reopening node 0's
		path = filepath.Join(dir, "node0.journal")
		for p, log := range local {
			want[p] = len(log)
		}
	} else {
		for p, recs := range byProc {
			want[p] = len(recs)
		}
	}
	if l["journal.restore_us_per_record"], err = probeRestore(path, sh.dec, sh.placement, want); err != nil {
		return err
	}

	writeUS := float64(totals(c.data).writeNS) / 1e3 / n
	dataFrames, _ := frames.Total()
	l["ledger.layer_us_per_msg"] = stampNS/1e3 + (encNS+decNS)/1e3*float64(dataFrames)/n + writeUS +
		l["journal.appends_per_msg"]*appendUS
	return nil
}
