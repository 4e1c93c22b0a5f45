// Package node hosts processes of a synchronous computation behind a real
// transport, speaking the internal/wire rendezvous protocol between nodes.
// It is the repository's one implementation of the Figure 5 rendezvous:
// programs (func(*Process) error) run as goroutines, each process keeps its
// clock and its rendezvous log, processes are placed on nodes, nodes
// exchange length-prefixed frames over a Transport (TCP in production, an
// in-memory loop in tests), and the piggybacked vectors travel
// delta-compressed with exact overhead accounting. internal/csp is this
// runtime on one node: every process on node 0 and no peers, which is also
// the only shape that admits Join.
//
// # Rendezvous over the wire
//
// A send to a process on another node is a two-phase exchange:
//
//	(1) the sender piggybacks its current vector on a SYN frame;
//	(2) the receiving process performs the Figure 5 merge (componentwise
//	    max, increment the channel's group component), which yields the
//	    message timestamp;
//	(3) the receiver returns the agreed stamp on an ACK frame and the
//	    sender adopts it (core.Clock.Adopt) — equivalent to the symmetric
//	    merge, since the stamp dominates the sender's vector.
//
// A send to a process on the same node takes the identical path over an
// in-memory reply channel, so local and remote rendezvous are
// indistinguishable to programs.
//
// # Topology of a run
//
// Placement maps every process to its node. Nodes form a full data mesh:
// the higher-numbered node dials the lower, and each connection opens with
// a HELLO handshake carrying the node id, its hosted processes, and a
// digest of the edge decomposition plus placement — nodes configured with
// different topologies refuse to talk. After its programs finish, a node
// streams its rendezvous logs to a collector node, which reconstructs the
// global computation with core.Reconstruct.
package node

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// ErrStopped is returned by Send/Recv when the node has been stopped or the
// run aborted (a peer failure, a deadline, or an explicit Stop).
var ErrStopped = errors.New("node: stopped")

// Default timeouts applied when Config leaves them zero.
const (
	DefaultHandshakeTimeout  = 10 * time.Second
	DefaultRendezvousTimeout = 10 * time.Second
)

// Config describes one node's slice of a distributed run. All nodes of a
// run must agree on Placement and Dec — the HELLO digest enforces it.
type Config struct {
	// Node is this node's index in [0, nodes).
	Node int
	// Placement maps each process to the node hosting it. It covers the
	// Dec.N() processes, and every node index up to the maximum must host at
	// least one process. A node that hosts every process may list more:
	// the processes past Dec.N() are slots that Join fills.
	Placement []int
	// Dec is the edge decomposition all clocks run under.
	Dec *decomp.Decomposition
	// HandshakeTimeout bounds connection establishment (dial retries
	// included) and the HELLO exchange. Zero means the default.
	HandshakeTimeout time.Duration
	// RendezvousTimeout bounds how long a Send waits for its ACK (or local
	// reply). Exceeding it aborts the run: a synchronous computation cannot
	// proceed past a lost rendezvous partner. The deadline, like each
	// retransmission, is an expiry of the process's one timer, posted into
	// the reply slot the Send waits on. Zero means the default;
	// math.MaxInt64 never expires, so a local send makes no timer and reads
	// no clock (csp's runs, which Wait bounds as a whole, use it).
	RendezvousTimeout time.Duration
	// Obs is the node's observability surface. Nil disables it; the
	// rendezvous hot paths then cost nothing extra.
	Obs *obs.Obs
	// FlightRecorder, when positive, turns on the always-on flight
	// recorder: a budget of that many recent rendezvous/internal events,
	// split evenly into one ring per hosted process, so it is cheap enough
	// to leave on in production. The events are dumped to FlightDump on the
	// first failure, on a peer loss, at end of run, and on demand (SIGQUIT
	// / the /debug/flight?dump=1 endpoint). When Obs is nil a minimal
	// surface is created to host the rings; when Obs already has a
	// recorder, that recorder is the one dumped.
	FlightRecorder int
	// FlightDump is the event file the flight recorder dumps to — a meta
	// record, then the ring's events in deterministic stamp order as binary
	// journal records (read back by ReadFlightDump), written atomically
	// (temp file, fsync, rename) so a reader never sees a torn dump. Empty
	// keeps the ring in memory only (still served over /debug/flight).
	FlightDump string
	// Recovery tunes the loss-tolerant protocol every node with peers speaks:
	// retransmission, dedup, reconnection, degradation policy, and
	// (optionally) crash-recovery journaling. Nil means
	// RecoveryConfig{OnPeerLoss: PeerLossAbort} with the retransmission
	// timeout floored at RendezvousTimeout: over a lossless transport a
	// retransmission could only be spurious, so such a run sends none, and
	// any connection error aborts it.
	Recovery *RecoveryConfig
}

// inbound is one rendezvous request parked in a process's mailbox: the
// sender's pre-merge vector, awaiting the receiver's merge. A local sender
// parks on its reply slot, which travels here so the receiver can answer
// into it; a remote sender parks on the ACK frame the receiver's node
// sends back, which the sender's read loop answers into the same slot.
type inbound struct {
	from    int
	seq     uint64
	vec     vector.V
	payload any         // a local sender's payload; nil for remote senders
	reply   chan answer // the local sender's reply slot; nil for remote senders
}

// peerConn is one established data connection to a peer node. The encoder
// is shared by every local process sending toward that node, serialized by
// mu; the decoder is owned by the connection's single reader goroutine.
type peerConn struct {
	n     *Node
	node  int
	epoch int // HELLO epoch; reconnects carry strictly larger ones
	c     net.Conn
	dec   *wire.Decoder

	// pending counts senders that have committed to encoding a frame but
	// not yet finished: the one that decrements it to zero flushes the
	// write buffer. That is the whole flush-on-idle discipline — a burst of
	// concurrent SYNs/ACKs from independent channel pairs shares one
	// transport write, while a lone frame still reaches the wire before its
	// send returns (the final decrement happens under mu, after the last
	// encode, so no frame is ever stranded unflushed).
	pending atomic.Int64

	mu  sync.Mutex
	enc *wire.Encoder
}

// flushYields is how many times the would-be flusher yields the scheduler
// before writing the batch to the transport. Transport writes on a socket
// never block (the kernel buffers them), so on a single CPU a sender runs
// its whole send without ever handing the processor to a concurrent sender —
// pending would stay at 1 and every frame would get its own transport
// write. Yielding first lets other runnable senders encode into the batch;
// whoever decrements pending to zero last inherits the flush. With nothing
// else runnable a yield returns immediately, so a lone send pays
// nanoseconds. One yield is enough to batch at GOMAXPROCS=1, and every
// further yield cost more CPU than it saved in writes (DESIGN §12).
const flushYields = 1

// send encodes one frame, serializing concurrent senders, and charges the
// owning node's live wire-traffic counters (no-ops with obs disabled).
// The encoder runs in batch mode and the last concurrent sender out flushes
// for everyone; send may return with its frame still in the write buffer
// only when a later sender has already committed to encoding — that sender
// (or its successor) flushes it. A BYE flushes at once instead.
func (pc *peerConn) send(f *wire.Frame) error {
	pc.pending.Add(1)
	//nolint:lockcheck released early on every branch below: the flush-on-idle protocol must drop the lock before yielding so later senders can encode
	pc.mu.Lock()
	k := int(f.Kind)
	before := 0
	if k < len(pc.n.wireBytes) {
		before = pc.enc.Stats.Bytes[k]
	}
	err := pc.enc.Encode(f)
	if err == nil && k < len(pc.n.wireBytes) {
		pc.n.wireFrames[k].Add(1)
		pc.n.wireBytes[k].Add(int64(pc.enc.Stats.Bytes[k] - before))
	}
	if f.Kind == wire.KindBye {
		// Flushed under the lock, the BYE's error covers only the frames
		// encoded up to it: a frame encoded after it and lost in the same
		// write must not mark a delivered BYE undelivered.
		if ferr := pc.enc.Flush(); err == nil {
			err = ferr
		}
		pc.pending.Add(-1)
		pc.mu.Unlock()
		return err
	}
	if pc.pending.Add(-1) > 0 {
		// A later sender is already committed to encoding; the flush is its
		// (or its successor's) responsibility.
		pc.mu.Unlock()
		return err
	}
	pc.mu.Unlock()
	for y := 0; y < flushYields; y++ {
		runtime.Gosched()
		if pc.pending.Load() > 0 {
			return err // a new sender arrived; it inherits the flush
		}
	}
	pc.mu.Lock()
	// Recheck under the lock: a sender that slipped in after the last yield
	// holds or awaits mu, and pending covers it either way.
	if pc.pending.Load() == 0 {
		if ferr := pc.enc.Flush(); err == nil {
			err = ferr
		}
	}
	pc.mu.Unlock()
	return err
}

// close ends the connection at end of run. It first flushes what
// concurrent senders encoded but have not flushed yet: the sender that
// inherited a flush may still be yielding when the end-of-run barrier
// lifts, and closing under it would strand the frames it owes the peer
// (a BYE is never among them: it flushes itself).
func (pc *peerConn) close() {
	pc.mu.Lock()
	_ = pc.enc.Flush() // best effort: a retired connection is already dead
	pc.mu.Unlock()
	_ = pc.c.Close()
}

// overhead snapshots the encoder's piggyback accounting.
func (pc *peerConn) overhead() core.Overhead {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.enc.Overhead
}

// stats snapshots the encoder's per-kind frame accounting.
func (pc *peerConn) stats() wire.Stats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.enc.Stats
}

// reportConn is an inbound log-report stream awaiting Collect.
type reportConn struct {
	node  int
	procs []int
	c     net.Conn
	dec   *wire.Decoder
}

// Node hosts the processes placed on one node and the connections to its
// peers. Create with New, drive with Run, and release with Close.
type Node struct {
	cfg    Config
	nodes  int
	local  []int // processes hosted here, ascending
	digest uint64
	tr     Transport

	stop     chan struct{}
	stopOnce sync.Once

	failMu  sync.Mutex
	failErr error

	// New builds the per-peer tables and channels below, the dedup slots
	// and the synchronizer only for a node with peers: a one-node run pays
	// for none of them.
	mu         sync.Mutex
	dec        *decomp.Decomposition // the current decomposition: cfg.Dec, grown by each Join
	procs      []*Process            // hosted processes, registered by Run and Join
	started    bool                  // Run has started the registered programs
	running    int                   // programs started and not yet returned
	drained    chan struct{}         // closed once a started run has no program left
	conns      []*peerConn           // indexed by peer node; nil until connected
	waiters    []waiter              // indexed by hosted process: its parked remote send
	retired    []*peerConn           // replaced or dead connections, kept for accounting
	epochs     []int                 // highest HELLO epoch used/seen per peer
	excluded   []bool                // peers removed from the run (PeerLossExclude)
	byeSeen    []bool                // peers that announced completion
	byeFailed  []bool                // peers our own BYE provably did not reach
	recovering []bool                // peers inside a reconnect window (recoverPeer in flight)
	woken      []bool                // hosted processes with an exclusion wake-up in their mailbox
	byeSent    bool                  // this node announced completion

	mailboxes []chan inbound // indexed by process; nil for remote processes

	// Recovery state: rec is Config.Recovery normalized (New hands its
	// Async, normalized too, to the synchronizer).
	rec        RecoveryConfig
	dedup      []dedupEntry // per sender process, each with its own lock
	restored   map[int]*resumeState
	baseEpoch  int
	peerEvent  chan struct{}
	recoveryWG sync.WaitGroup

	// Synchronizer state (see async.go): one record per link, indexed by
	// peer node (nil for self, and nil on a node without peers).
	peers      []*tssync.Peer
	peerRTT    []*obs.Histogram
	peerHealth []*obs.Gauge

	retransmits atomic.Int64
	reconnects  atomic.Int64
	deduped     atomic.Int64

	reports   chan *reportConn
	regCh     chan int      // handshake completions from the accept loop
	connDone  chan struct{} // closed once the connect phase stops counting
	acceptWG  sync.WaitGroup
	readersWG sync.WaitGroup
	startOnce sync.Once

	// Observability (the surface itself is cfg.Obs): its resolved
	// instruments, the per-kind wire-traffic counters, and the
	// dropped-frame count (kept even with obs disabled, so RunInfo can
	// always report it).
	ins        obs.Instruments
	wireFrames [wire.KindMax]*obs.Counter
	wireBytes  [wire.KindMax]*obs.Counter
	dropped    atomic.Int64

	// rollup accumulates peer nodes' METRICS snapshots during a collect
	// (created lazily, guarded by mu); dumpMu serializes flight dumps.
	rollup *obs.Registry
	dumpMu sync.Mutex
}

// New validates the configuration and returns an idle node. The transport
// is adopted: Close closes it.
func New(cfg Config, tr Transport) (*Node, error) {
	if cfg.Dec == nil {
		return nil, errors.New("node: nil decomposition")
	}
	if len(cfg.Placement) < cfg.Dec.N() {
		return nil, fmt.Errorf("node: placement covers %d processes, decomposition has %d", len(cfg.Placement), cfg.Dec.N())
	}
	nodes := cfg.Node + 1
	for p, host := range cfg.Placement {
		if host < 0 {
			return nil, fmt.Errorf("node: process %d placed on negative node %d", p, host)
		}
		if host+1 > nodes {
			nodes = host + 1
		}
	}
	if cfg.Node < 0 {
		return nil, fmt.Errorf("node: negative node index %d", cfg.Node)
	}
	if len(cfg.Placement) > cfg.Dec.N() && nodes > 1 {
		return nil, fmt.Errorf("node: placement covers %d processes, decomposition has %d (only a one-node run reserves Join slots)", len(cfg.Placement), cfg.Dec.N())
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if cfg.RendezvousTimeout <= 0 {
		cfg.RendezvousTimeout = DefaultRendezvousTimeout
	}
	// Normalized copies; the caller's structs stay untouched.
	rec, async := RecoveryConfig{OnPeerLoss: PeerLossAbort}, tssync.Config{RTOMin: cfg.RendezvousTimeout}
	if cfg.Recovery != nil {
		rec, async = *cfg.Recovery, tssync.Config{}
		if rec.Async != nil {
			async = *rec.Async
		}
	}
	if rec.ReconnectWindow <= 0 {
		rec.ReconnectWindow = cfg.HandshakeTimeout
	}
	if err := async.Validate(); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	procs := len(cfg.Placement)
	n := &Node{
		cfg:       cfg,
		nodes:     nodes,
		tr:        tr,
		stop:      make(chan struct{}),
		dec:       cfg.Dec,
		drained:   make(chan struct{}),
		mailboxes: make([]chan inbound, procs),
		rec:       rec,
	}
	if nodes > 1 {
		n.digest = wire.Digest(cfg.Dec, cfg.Placement) // a one-node run speaks no HELLO
		n.conns = make([]*peerConn, nodes)
		n.waiters = make([]waiter, procs)
		n.epochs = make([]int, nodes)
		n.excluded = make([]bool, nodes)
		n.byeSeen = make([]bool, nodes)
		n.byeFailed = make([]bool, nodes)
		n.recovering = make([]bool, nodes)
		n.woken = make([]bool, procs)
		n.reports = make(chan *reportConn, nodes)
		n.regCh = make(chan int, nodes)
		n.connDone = make(chan struct{})
		n.dedup = make([]dedupEntry, procs)
		n.peerEvent = make(chan struct{}, 1)
	}
	for p, host := range cfg.Placement {
		if host == cfg.Node {
			if p < cfg.Dec.N() {
				n.local = append(n.local, p)
			}
			// One slot per potential sender keeps any valid computation's
			// senders from blocking on mailbox insertion; the process's own
			// slot holds excludePeer's one pending wake-up.
			n.mailboxes[p] = make(chan inbound, procs)
		}
	}
	if cfg.FlightRecorder > 0 {
		if n.cfg.Obs == nil {
			n.cfg.Obs = &obs.Obs{} // just the rings: no metrics, no clock reads
		}
		if n.cfg.Obs.Recorder == nil {
			// Allocated now rather than on each process's first event, so
			// the rings are part of the node's set-up, not of its run.
			ring := max(1, cfg.FlightRecorder/max(1, len(n.local)))
			n.cfg.Obs.Recorder = obs.NewRecorder(ring, n.local...)
		}
		n.cfg.Obs.Recorder.SetDumpHook(func() { n.DumpFlight() })
	}
	n.ins = obs.NewInstruments(n.cfg.Obs.Registry(), procs)
	if r := n.cfg.Obs.Registry(); r != nil {
		for _, k := range wire.Kinds() {
			fn, bn := obs.FrameMetrics(k.String())
			n.wireFrames[k] = r.Counter(fn)
			n.wireBytes[k] = r.Counter(bn)
		}
	}
	if nodes > 1 {
		n.initAsync(async)
	}
	return n, nil
}

// Local returns the processes hosted on this node, ascending.
func (n *Node) Local() []int { return append([]int(nil), n.local...) }

// Stop aborts the run: parked Sends and Recvs return ErrStopped, readers
// and the accept loop unblock. Idempotent. It closes the stop channel
// first, then answers ErrStopped into every hosted process's reply slot
// and posts one wake-up into every mailbox, where those waits park. Neither
// post blocks: a full slot or mailbox holds something its waiter reads
// before it re-checks stopped, and a wait begun later checks it first.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		_ = n.tr.Close()
		n.mu.Lock()
		conns := append([]*peerConn(nil), n.conns...)
		procs := n.procs
		n.mu.Unlock()
		for _, pc := range conns {
			if pc != nil {
				_ = pc.c.Close()
			}
		}
		for _, p := range procs {
			select {
			case p.reply <- answer{err: ErrStopped}:
			default:
			}
		}
		for _, mb := range n.mailboxes {
			select {
			case mb <- inbound{from: anySender}: // a nil mailbox (remote process) is never ready
			default:
			}
		}
	})
}

// Close stops the node and waits for its goroutines to drain.
func (n *Node) Close() {
	n.Stop()
	n.acceptWG.Wait()
	n.recoveryWG.Wait()
	n.readersWG.Wait()
}

// fail records the first abort cause and stops the node. The first failure
// also dumps the flight recorder — the post-mortem is written while the
// evidence is fresh, before teardown races can rotate events out of the
// ring.
func (n *Node) fail(err error) {
	n.failMu.Lock()
	first := n.failErr == nil
	if first {
		n.failErr = err
	}
	n.failMu.Unlock()
	if first {
		n.DumpFlight()
	}
	n.Stop()
}

func (n *Node) failure() error {
	n.failMu.Lock()
	defer n.failMu.Unlock()
	return n.failErr
}

func (n *Node) stopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// post delivers v into ch, a mailbox or reply slot that has room by
// construction: a mailbox holds one request per sender and the wake-ups,
// a reply slot one answer per send. The first try does not block, so a
// post touches the node-wide stop channel only when the slot is full. It
// reports false if the node stopped first.
func post[T any](n *Node, ch chan T, v T) bool {
	select {
	case ch <- v:
		return true
	default:
	}
	select {
	case ch <- v:
		return true
	case <-n.stop:
		return false
	}
}

// start launches the accept loop (first Run or Collect does it).
func (n *Node) start() {
	n.startOnce.Do(func() {
		n.acceptWG.Add(1)
		go n.acceptLoop()
	})
}

// acceptLoop owns Transport.Accept, performing the HELLO handshake inline
// and dispatching each stream by role: data connections get a reader
// goroutine, report streams are parked for Collect.
func (n *Node) acceptLoop() {
	defer n.acceptWG.Done()
	for {
		c, err := n.tr.Accept()
		if err != nil {
			return // transport closed (Stop or Close)
		}
		if err := n.handleAccept(c); err != nil {
			_ = c.Close()
			if !n.stopped() {
				n.fail(err)
			}
			return
		}
	}
}

// handleAccept completes the server side of the HELLO handshake.
func (n *Node) handleAccept(c net.Conn) error {
	_ = c.SetDeadline(time.Now().Add(n.cfg.HandshakeTimeout))
	dec := wire.NewDecoder(c, n.cfg.Dec.D())
	f, err := dec.Decode()
	if err != nil {
		return fmt.Errorf("node %d: handshake read: %w", n.cfg.Node, err)
	}
	if f.Kind != wire.KindHello {
		return fmt.Errorf("node %d: handshake opened with %v, want HELLO", n.cfg.Node, f.Kind)
	}
	if f.Digest != n.digest {
		return fmt.Errorf("node %d: node %d has topology digest %#x, ours is %#x (mismatched decomposition or placement)", n.cfg.Node, f.Node, f.Digest, n.digest)
	}
	if f.Node < 0 || f.Node >= n.nodes || f.Node == n.cfg.Node {
		return fmt.Errorf("node %d: handshake from implausible node %d", n.cfg.Node, f.Node)
	}
	switch f.Role {
	case wire.RoleData:
		enc := wire.NewEncoder(c, n.cfg.Dec.D())
		hello := &wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: n.cfg.Node, Procs: n.local, Digest: n.digest, Epoch: f.Epoch}
		if err := enc.Encode(hello); err != nil {
			return fmt.Errorf("node %d: handshake reply to node %d: %w", n.cfg.Node, f.Node, err)
		}
		_ = c.SetDeadline(time.Time{})
		// The HELLO above flushed itself; from here the stream carries data
		// frames, which coalesce under the flush-on-idle writer.
		enc.SetBatch(true)
		pc := &peerConn{n: n, node: f.Node, epoch: f.Epoch, c: c, enc: enc, dec: dec}
		if err := n.register(pc); err != nil {
			return err
		}
		// Announce to the connect phase if it is still counting peers; a
		// reconnect accepted after the mesh is up has no one to tell.
		select {
		case n.regCh <- f.Node:
		case <-n.connDone:
		case <-n.stop:
		}
		return nil
	case wire.RoleReport:
		_ = c.SetDeadline(time.Time{})
		select {
		case n.reports <- &reportConn{node: f.Node, procs: f.Procs, c: c, dec: dec}:
			return nil
		case <-n.stop:
			return ErrStopped
		}
	default:
		return fmt.Errorf("node %d: handshake with unknown role %d", n.cfg.Node, f.Role)
	}
}

// register records an established data connection and starts its reader. A
// connection with a strictly higher HELLO epoch replaces the existing one
// (session resume after a peer loss this side has not noticed yet); equal
// or lower epochs are duplicates and refused.
func (n *Node) register(pc *peerConn) error {
	n.mu.Lock()
	old := n.conns[pc.node]
	dup := old != nil && pc.epoch <= old.epoch
	var announce bool
	if !dup {
		n.conns[pc.node] = pc
		if pc.epoch > n.epochs[pc.node] {
			n.epochs[pc.node] = pc.epoch
		}
		if old != nil {
			n.retired = append(n.retired, old)
		}
		announce = n.byeSent
	}
	n.mu.Unlock()
	if dup {
		return fmt.Errorf("node %d: duplicate connection from node %d", n.cfg.Node, pc.node)
	}
	if old != nil {
		_ = old.c.Close()
	}
	if pc.epoch > 0 {
		n.reconnects.Add(1)
		n.ins.Reconnects.Add(1)
	}
	n.noteAlive(pc.node) // the peer's HELLO is a frame from it, so it heals suspicion
	n.readersWG.Add(1)
	go n.readLoop(pc)
	if announce {
		// Our run already finished; the resumed session must still learn it
		// (and a BYE the dead session swallowed is re-announced here, which
		// settles the debt holding our own end-of-run barrier open).
		if err := pc.send(&wire.Frame{Kind: wire.KindBye}); err == nil {
			n.mu.Lock()
			n.byeFailed[pc.node] = false
			n.mu.Unlock()
			n.notePeerEvent()
		} else {
			n.noteByeFailed(pc.node)
		}
	}
	return nil
}

// dialPeer completes the client side of the HELLO handshake with a
// lower-numbered node by the deadline. epoch 0 is a first connection;
// reconnects carry strictly larger epochs so the acceptor can replace a
// stale session.
func (n *Node) dialPeer(j, epoch int, deadline time.Time) error {
	c, err := n.tr.Dial(j, deadline)
	if err != nil {
		return fmt.Errorf("node %d: %w", n.cfg.Node, err)
	}
	_ = c.SetDeadline(deadline)
	enc := wire.NewEncoder(c, n.cfg.Dec.D())
	hello := &wire.Frame{Kind: wire.KindHello, Role: wire.RoleData, Node: n.cfg.Node, Procs: n.local, Digest: n.digest, Epoch: epoch}
	if err := enc.Encode(hello); err != nil {
		_ = c.Close()
		return fmt.Errorf("node %d: handshake with node %d: %w", n.cfg.Node, j, err)
	}
	dec := wire.NewDecoder(c, n.cfg.Dec.D())
	f, err := dec.Decode()
	if err != nil {
		_ = c.Close()
		return fmt.Errorf("node %d: handshake reply from node %d: %w", n.cfg.Node, j, err)
	}
	if f.Kind != wire.KindHello || f.Node != j {
		_ = c.Close()
		return fmt.Errorf("node %d: handshake reply from node %d carried %v/node %d", n.cfg.Node, j, f.Kind, f.Node)
	}
	if f.Digest != n.digest {
		_ = c.Close()
		return fmt.Errorf("node %d: node %d has topology digest %#x, ours is %#x (mismatched decomposition or placement)", n.cfg.Node, j, f.Digest, n.digest)
	}
	_ = c.SetDeadline(time.Time{})
	enc.SetBatch(true)
	return n.register(&peerConn{n: n, node: j, epoch: epoch, c: c, enc: enc, dec: dec})
}

// connect establishes the full data mesh: dial every lower node, await a
// dial from every higher one. A one-node run has no mesh to build.
func (n *Node) connect() error {
	if n.nodes == 1 {
		return nil
	}
	n.start()
	n.mu.Lock()
	epoch := n.baseEpoch // 0, or the restart stride after a journal Restore
	n.mu.Unlock()
	for j := 0; j < n.cfg.Node; j++ {
		if err := n.dialPeer(j, epoch, time.Now().Add(n.cfg.HandshakeTimeout)); err != nil {
			return err
		}
	}
	want := n.nodes - 1 - n.cfg.Node
	timer := time.NewTimer(n.cfg.HandshakeTimeout)
	defer timer.Stop()
	for have := 0; have < want; {
		select {
		case <-n.regCh:
			have++
		case <-n.stop:
			if err := n.failure(); err != nil {
				return err
			}
			return ErrStopped
		case <-timer.C:
			return fmt.Errorf("node %d: %d of %d higher peers connected within %v", n.cfg.Node, have, want, n.cfg.HandshakeTimeout)
		}
	}
	close(n.connDone)
	return nil
}

// readLoop demultiplexes one data connection: SYNs go to the target
// process's mailbox, ACKs release the parked sender, BYE announces the
// peer's clean completion. A protocol violation aborts the node; a
// transport error while the run is live is a peer loss (peerLost).
func (n *Node) readLoop(pc *peerConn) {
	defer n.readersWG.Done()
	var f wire.Frame // reused: only the decoded vector is fresh per frame
	for {
		if err := pc.dec.DecodeInto(&f); err != nil {
			if !n.stopped() {
				n.peerLost(pc, err)
			}
			return
		}
		n.noteAlive(pc.node)
		switch f.Kind {
		case wire.KindSyn:
			if f.To < 0 || f.To >= len(n.mailboxes) || n.mailboxes[f.To] == nil {
				n.fail(fmt.Errorf("node %d: SYN from node %d targets process %d, not hosted here", n.cfg.Node, pc.node, f.To))
				return
			}
			if f.From < 0 || f.From >= len(n.cfg.Placement) || n.cfg.Placement[f.From] != pc.node {
				n.fail(fmt.Errorf("node %d: SYN from node %d names sender process %d, not hosted there", n.cfg.Node, pc.node, f.From))
				return
			}
			reack, deliver := n.dedupCheck(&f)
			if !deliver {
				if reack != nil {
					// The merge committed but its ACK was lost: answer the
					// retransmission from the cache, idempotently.
					// Asynchronously — the read loop is this connection's
					// only drain, and two nodes re-ACKing each other over
					// unbuffered streams would deadlock if either blocked
					// here. The goroutine unblocks when the peer reads or the
					// connection dies; readersWG makes it joinable at Close,
					// which closes the conn first so send cannot block
					// forever.
					n.readersWG.Add(1)
					go func() {
						defer n.readersWG.Done()
						_ = pc.send(reack)
					}()
				}
				continue
			}
			if !post(n, n.mailboxes[f.To], inbound{from: f.From, seq: f.Seq, vec: f.Vec}) {
				return
			}
		case wire.KindAck:
			n.mu.Lock()
			var w chan answer
			if f.Seq != 0 && f.To >= 0 && f.To < len(n.waiters) && n.waiters[f.To].seq == f.Seq {
				w = n.waiters[f.To].reply
				n.waiters[f.To].seq = 0 // taken: a duplicate of this ACK finds no sender
			}
			n.mu.Unlock()
			if w == nil {
				// The sender's deadline expired, it took the first copy of a
				// duplicate ACK, or excludePeer answered it — legitimate
				// races, not protocol violations: count and keep reading.
				n.noteDropped()
				continue
			}
			// The slot is full only while it holds an answer the sender is
			// about to drop: a late answer to a send its process abandoned,
			// or an expiry.
			if !post(n, w, answer{seq: f.Seq, stamp: f.Vec}) {
				return
			}
		case wire.KindBye:
			n.mu.Lock()
			n.byeSeen[pc.node] = true
			n.mu.Unlock()
			n.notePeerEvent()
			// Keep draining: at-least-once delivery means retransmissions,
			// duplicates, and reorder stragglers can trail the peer's BYE,
			// and a parked writer on the far side needs them consumed (and
			// lost-ACK retransmissions still answered from the dedup cache).
			// The loop ends when the connection is torn down.
		default:
			// HELLO or INTERNAL frames do not belong on an established data
			// stream; count and drop them rather than killing the run.
			n.noteDropped()
		}
	}
}

// noteDropped records one discarded frame, both for RunInfo and /metrics.
func (n *Node) noteDropped() {
	n.dropped.Add(1)
	n.ins.DroppedFrames.Add(1)
}

// DroppedFrames reports how many frames the read loops have discarded so
// far (late or duplicate ACKs, unexpected kinds).
func (n *Node) DroppedFrames() int64 { return n.dropped.Load() }

// waiter is a hosted process's parked remote send: its reply slot, the
// sequence number it awaits (0 when none is) and its partner's node.
type waiter struct {
	reply chan answer
	seq   uint64
	node  int
}

// registerWaiter parks a remote sender: the first answer to its send seq,
// the ACK echoing seq or excludePeer's ErrPeerLost, lands in reply and
// clears the registration. It reports false if node is already excluded.
// Must be called before the SYN is written, or the ACK could race past.
func (n *Node) registerWaiter(proc, node int, reply chan answer, seq uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.excluded[node] {
		return false
	}
	n.waiters[proc] = waiter{reply: reply, seq: seq, node: node}
	return true
}

// clearWaiter withdraws a remote sender's registration when it abandons
// its send, so a late ACK is counted as dropped.
func (n *Node) clearWaiter(proc int) {
	n.mu.Lock()
	n.waiters[proc].seq = 0
	n.mu.Unlock()
}

// RunInfo is the local outcome of a completed run.
type RunInfo struct {
	// Logs holds each hosted process's rendezvous log, keyed by process.
	Logs map[int][]core.Record
	// Overhead is the exact piggyback accounting over this node's data
	// connections (local rendezvous cost no wire bytes and are excluded).
	Overhead core.Overhead
	// Frames is the node's sent wire traffic by frame kind, header bytes
	// included.
	Frames wire.Stats
	// Dropped counts frames the read loops discarded: late ACKs arriving
	// after their sender gave up, duplicate ACKs, and frame kinds unexpected
	// on a data connection.
	Dropped int64
	// Retransmits counts SYN frames re-sent after a retransmission timeout
	// expired without the ACK.
	Retransmits int64
	// Reconnects counts data connections re-established after a peer loss.
	Reconnects int64
	// Deduped counts duplicate SYN frames the receive path suppressed.
	Deduped int64
	// Excluded lists the peer nodes removed from the run under
	// PeerLossExclude, ascending. Empty on a fully healthy run.
	Excluded []int
	// JournalAppends and JournalSyncs count committed journal records and
	// the fsync batches that made them durable (with a journal only; both
	// zero otherwise). Syncs well below Appends is group commit doing its
	// job.
	JournalAppends int64
	JournalSyncs   int64
	// Rollup is the cluster-wide metrics view the collector assembled
	// (Collect on the collector node only; nil elsewhere): every reporting
	// node's registry snapshot merged into this node's own metrics —
	// counters and gauges add, histograms merge bucket-wise. The same
	// totals are folded into the node's live registry, so /metrics serves
	// the merged cluster view.
	Rollup *obs.Snapshot
	// Spurious and Suspicions are synchronizer totals, summed over links:
	// retransmissions the Eifel-style detector proved unnecessary, and the
	// times a link turned suspect.
	Spurious   int64
	Suspicions int64
	// PeerRTT and PeerHealth are the synchronizer's per-peer view, keyed by
	// peer node id: the RTT estimate and histogram quantiles, and the final
	// health state's name (excluded for a peer in Excluded). Nil on a node
	// without peers.
	PeerRTT    map[int]RTTStats
	PeerHealth map[int]string
}

// Run connects the data mesh, executes one program per hosted process (a
// missing or nil entry means "immediately done"), and waits for every
// hosted program and every peer node to finish. It returns the hosted
// processes' rendezvous logs and the wire-overhead account. Any program
// error, peer failure, or deadline aborts the whole run.
func (n *Node) Run(programs map[int]func(*Process) error) (*RunInfo, error) {
	if err := n.connect(); err != nil {
		n.fail(err)
		return nil, err
	}
	n.mu.Lock()
	joined := n.procs // processes a Join registered before Run
	n.procs = nil
	for _, p := range n.local {
		proc := &Process{id: p, n: n, prog: programs[p], reply: make(chan answer, 1)}
		if st := n.restored[p]; st != nil {
			// Resume from the journal: the clock, log, and send sequence
			// counter continue where the previous incarnation committed.
			proc.clock, proc.log.cur, proc.seq = st.clock, st.log, st.seq
		} else {
			proc.clock = core.NewClock(p, n.cfg.Dec)
		}
		n.procs = append(n.procs, proc)
	}
	n.procs = append(n.procs, joined...)
	n.started = true
	for _, proc := range n.procs {
		n.launch(proc)
	}
	if n.running == 0 {
		close(n.drained)
	}
	n.mu.Unlock()
	<-n.drained
	n.mu.Lock()
	procs := n.procs
	n.mu.Unlock()
	for _, proc := range procs {
		if proc.timer != nil {
			proc.timer.Stop() // every Send has returned; leave no timer armed past Run
		}
	}

	// Announce completion. Readers die and are replaced across reconnects,
	// so the run's global barrier is "every peer said BYE or was excluded"
	// (a reconnect registered after this point re-announces, see register).
	if !n.stopped() {
		n.mu.Lock()
		n.byeSent = true
		conns := append([]*peerConn(nil), n.conns...)
		n.mu.Unlock()
		for j, pc := range conns {
			if j == n.cfg.Node {
				continue
			}
			if pc == nil {
				// The peer is mid-reconnect: our BYE has no connection to
				// travel on. Recovery re-announces it on the resumed session;
				// until then the peer may be parked on our BYE.
				n.noteByeFailed(j)
				continue
			}
			if err := pc.send(&wire.Frame{Kind: wire.KindBye}); err != nil && !n.stopped() {
				// The connection died under our BYE; the peer never saw it
				// and its end-of-run barrier is now waiting on us. Mark the
				// debt so our own barrier holds until a resumed session
				// re-announces (register clears the debt).
				n.noteByeFailed(j)
			}
		}
	}
	n.awaitPeersDone()

	info := &RunInfo{Logs: make(map[int][]core.Record, len(procs))}
	n.mu.Lock()
	conns := append(append([]*peerConn(nil), n.conns...), n.retired...)
	n.mu.Unlock()
	for _, pc := range conns {
		if pc == nil {
			continue
		}
		info.Overhead.Merge(pc.overhead())
		info.Frames.Merge(pc.stats())
		pc.close()
	}
	info.Dropped = n.dropped.Load()
	info.Retransmits = n.retransmits.Load()
	info.Reconnects = n.reconnects.Load()
	info.Deduped = n.deduped.Load()
	info.Excluded = n.excludedList()
	n.asyncInfo(info)
	if n.rec.Journal != nil {
		js := n.rec.Journal.Stats()
		info.JournalAppends = js.Appends
		info.JournalSyncs = js.Syncs
		if r := n.cfg.Obs.Registry(); r != nil {
			r.Gauge(obs.MetricJournalAppends).Set(js.Appends)
			r.Gauge(obs.MetricJournalSyncs).Set(js.Syncs)
		}
	}
	for _, proc := range procs {
		info.Logs[proc.id] = proc.log.join()
	}
	// End-of-run dump, the only one with the frame table: after a journal
	// Restore re-primed the ring, it holds the incarnation's complete
	// committed history — the post-mortem a kill -9'd predecessor could
	// never write.
	n.dumpFlight(info.Frames)

	// Root cause: prefer a program's own error over the ErrStopped echoes
	// of its neighbors, the lowest process id first.
	var pick *Process
	for _, proc := range procs {
		if proc.err == nil {
			continue
		}
		if pick == nil || (errors.Is(pick.err, ErrStopped) && !errors.Is(proc.err, ErrStopped)) {
			pick = proc
		}
	}
	if pick != nil && !errors.Is(pick.err, ErrStopped) {
		return info, fmt.Errorf("node %d: process %d: %w", n.cfg.Node, pick.id, pick.err)
	}
	if err := n.failure(); err != nil {
		return info, err
	}
	if pick != nil {
		return info, fmt.Errorf("node %d: process %d: %w", n.cfg.Node, pick.id, pick.err)
	}
	return info, nil
}

// launch starts a registered process's program, if it has one; the caller
// holds n.mu. The goroutine that returns last closes n.drained.
func (n *Node) launch(proc *Process) {
	if proc.prog == nil {
		return
	}
	n.running++
	go func() {
		err := proc.prog(proc)
		if err != nil {
			n.fail(fmt.Errorf("node %d: process %d: %w", n.cfg.Node, proc.id, err))
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		proc.err = err
		n.running--
		if n.running == 0 {
			close(n.drained)
		}
	}()
}

// Join adds one process to a node that hosts every process: grown must
// extend the node's current decomposition by exactly that process (same d,
// old channels unchanged — decomp.Extends), and Placement must hold a slot
// for it. The new process runs program; Join returns its id. Before Run,
// the process waits to start with the others; once every program has
// returned, Join refuses. Running processes adopt the grown decomposition
// lazily, on the first exchange their clock's snapshot does not cover, so
// all timestamps stay mutually comparable.
func (n *Node) Join(grown *decomp.Decomposition, program func(*Process) error) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.nodes != 1:
		return 0, fmt.Errorf("node %d: Join needs a node that hosts every process, and this run spans %d nodes", n.cfg.Node, n.nodes)
	case n.started && n.running == 0:
		return 0, fmt.Errorf("node %d: Join after the run drained", n.cfg.Node)
	case grown.N() != n.dec.N()+1:
		return 0, fmt.Errorf("node %d: Join adds one process; decomposition grows %d -> %d", n.cfg.Node, n.dec.N(), grown.N())
	case grown.N() > len(n.cfg.Placement):
		return 0, fmt.Errorf("node %d: all %d process slots are taken", n.cfg.Node, len(n.cfg.Placement))
	}
	if err := decomp.Extends(n.dec, grown); err != nil {
		return 0, fmt.Errorf("node %d: %w", n.cfg.Node, err)
	}
	n.dec = grown
	id := grown.N() - 1
	proc := &Process{id: id, n: n, clock: core.NewClock(id, grown), prog: program, reply: make(chan answer, 1)}
	n.procs = append(n.procs, proc)
	if n.started {
		n.launch(proc)
	}
	return id, nil
}
