package fault

import (
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"syncstamp/internal/wire"
)

// Inner is the transport being wrapped. It is structurally identical to the
// node package's Transport interface; declaring it here keeps the injector
// free of a node dependency, so it can wrap any conforming transport.
type Inner interface {
	Dial(node int, deadline time.Time) (net.Conn, error)
	Accept() (net.Conn, error)
	Close() error
}

// reorderFlush bounds how long a reorder-held frame can sit if the link
// goes idle before the next frame arrives to overtake it.
const reorderFlush = 50 * time.Millisecond

// Stats is a snapshot of the fates the injector has applied.
type Stats struct {
	Dropped    int64
	Duplicated int64
	Reordered  int64
	Delayed    int64
	Resets     int64
}

// Transport wraps an Inner transport with the plan's fault schedule. Every
// connection it hands out splits its egress byte stream back into wire
// frames and applies per-link fates to SYN/ACK frames; all other kinds (and
// all report-role connections) pass through verbatim. Link state — frame
// counters, the seeded fate generator, pending resets and partitions — is
// keyed by peer node and shared across reconnects, so a schedule keeps
// advancing through connection churn.
type Transport struct {
	inner Inner
	plan  *Plan
	self  int

	// CrashFn is invoked (outside all injector locks) when this node's
	// scheduled crash threshold is reached. tsnode installs os.Exit; tests
	// install a Stop or a panic. Nil disables scheduled crashes.
	CrashFn func()

	dropped    atomic.Int64
	duplicated atomic.Int64
	reordered  atomic.Int64
	delayed    atomic.Int64
	resets     atomic.Int64

	mu         sync.Mutex
	links      map[int]*link
	sent       int // vector frames sent by this node, for the crash schedule
	crashAfter int
	crashed    bool
}

// New wraps inner with plan's faults, from the point of view of node self.
func New(inner Inner, plan *Plan, self int) *Transport {
	return &Transport{
		inner:      inner,
		plan:       plan,
		self:       self,
		links:      make(map[int]*link),
		crashAfter: plan.crashAfter(self),
	}
}

// Stats snapshots the injector's fate counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Dropped:    t.dropped.Load(),
		Duplicated: t.duplicated.Load(),
		Reordered:  t.reordered.Load(),
		Delayed:    t.delayed.Load(),
		Resets:     t.resets.Load(),
	}
}

// Dial wraps the inner dial; the peer is known immediately.
func (t *Transport) Dial(node int, deadline time.Time) (net.Conn, error) {
	c, err := t.inner.Dial(node, deadline)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: c, t: t}
	fc.peer.Store(int64(node))
	fc.sniffDone = true // peer known from the dial target
	return fc, nil
}

// Accept wraps the inner accept; the peer is learned by sniffing the
// inbound HELLO.
func (t *Transport) Accept() (net.Conn, error) {
	c, err := t.inner.Accept()
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: c, t: t}
	fc.peer.Store(-1)
	return fc, nil
}

// Close closes the inner transport.
func (t *Transport) Close() error { return t.inner.Close() }

// link returns (creating on first use) the shared fault state for frames
// this node sends toward peer.
func (t *Transport) link(peer int) *link {
	t.mu.Lock()
	defer t.mu.Unlock()
	lk := t.links[peer]
	if lk == nil {
		rule := t.plan.rule(t.self, peer)
		lk = &link{rule: rule}
		if rule != nil {
			// Each directed link gets its own deterministic generator, so
			// fate streams do not depend on how connections interleave.
			seed := t.plan.Seed*1_000_003 + int64(t.self)*8191 + int64(peer)
			lk.rng = rand.New(rand.NewSource(seed))
			lk.drops = make(map[int]bool, len(rule.DropFrames))
			for _, f := range rule.DropFrames {
				lk.drops[f] = true
			}
			lk.resets = append([]int(nil), rule.ResetAfter...)
		}
		t.links[peer] = lk
	}
	return lk
}

// noteSent advances the node-wide frame count for the crash schedule and
// reports whether the scheduled crash fires on this frame.
func (t *Transport) noteSent() bool {
	if t.crashAfter <= 0 {
		return false
	}
	t.mu.Lock()
	t.sent++
	fire := !t.crashed && t.sent >= t.crashAfter
	if fire {
		t.crashed = true
	}
	t.mu.Unlock()
	return fire
}

// link is the per-(self → peer) fault state, shared by every connection to
// that peer across reconnects.
type link struct {
	mu      sync.Mutex
	rule    *LinkFault
	rng     *rand.Rand
	frames  int          // SYN/ACK frames seen on this link
	drops   map[int]bool // deterministic drop indices
	resets  []int        // pending reset thresholds, ascending
	partEnd int          // partition window end (frames < partEnd after start drop)
	held    []byte       // reorder: frame waiting to be overtaken
	heldC   net.Conn     // the raw conn the held frame belongs to
	timer   *time.Timer  // idle flush for the held frame
}

// fate is the decision for one frame, computed under the link lock.
type fate struct {
	drop    bool
	dup     bool
	reorder bool
	delay   time.Duration
	reset   bool
}

// decide draws the frame's fates. Every probabilistic fate draws exactly
// once, in a fixed order, whether or not it applies — the generator stream
// stays aligned with the frame index no matter which fates fire. A jitter
// rule appends its own draw after the four fate draws; because the draw
// happens on every frame of the link, the latency schedule is as replayable
// as the fates (distribution draws may consume a variable number of
// underlying values, but the call sequence per frame index is fixed, which
// is all determinism needs).
func (lk *link) decide() fate {
	r := lk.rule
	idx := lk.frames
	lk.frames++
	pDrop := lk.rng.Float64()
	pDup := lk.rng.Float64()
	pReorder := lk.rng.Float64()
	pDelay := lk.rng.Float64()

	var f fate
	if r.PartitionFrames > 0 && idx >= r.PartitionAfter && idx < r.PartitionAfter+r.PartitionFrames {
		f.drop = true
	} else if lk.drops[idx] {
		f.drop = true
	} else if pDrop < r.Drop {
		f.drop = true
	}
	if !f.drop {
		f.dup = pDup < r.Dup
		f.reorder = pReorder < r.Reorder
	}
	if r.DelayProb > 0 && pDelay < r.DelayProb {
		f.delay = time.Duration(r.DelayMS) * time.Millisecond
	}
	if r.Jitter != nil {
		f.delay += lk.jitter(r.Jitter)
	}
	if len(lk.resets) > 0 && lk.frames >= lk.resets[0] {
		lk.resets = lk.resets[1:]
		f.reset = true
	}
	return f
}

// jitter draws one latency from the rule's distribution, clamped to the cap
// (10·mean when unset). Called with lk.mu held (the rng is lock-guarded
// link state).
func (lk *link) jitter(j *JitterSpec) time.Duration {
	if j.MeanMS <= 0 {
		return 0
	}
	var ms float64
	switch j.Dist {
	case JitterLognormal:
		sigma := j.Sigma
		if sigma == 0 {
			sigma = 0.5
		}
		ms = j.MeanMS * math.Exp(sigma*lk.rng.NormFloat64())
	case JitterPareto:
		alpha := j.Alpha
		if alpha == 0 {
			alpha = 2.5
		}
		// Scale xm so the distribution's mean is MeanMS, then invert the
		// CDF: x = xm / (1-u)^(1/alpha).
		xm := j.MeanMS * (alpha - 1) / alpha
		u := lk.rng.Float64()
		ms = xm / math.Pow(1-u, 1/alpha)
	default: // JitterFixed — still draw nothing; fixed needs no randomness
		ms = j.MeanMS
	}
	cap := j.CapMS
	if cap <= 0 {
		cap = 10 * j.MeanMS
	}
	if ms > cap {
		ms = cap
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// faultConn wraps one stream. Egress writes are reassembled into frames
// and run through the link schedule; ingress reads pass through, with the
// first inbound frame sniffed on accepted connections to learn the peer.
type faultConn struct {
	net.Conn
	t    *Transport
	peer atomic.Int64 // -1 until known

	wmu       sync.Mutex
	wbuf      []byte
	role      byte
	roleKnown bool
	exempt    bool // egress stopped parsing as frames; bytes pass through raw

	rmu       sync.Mutex
	rbuf      []byte
	sniffDone bool
}

// Read passes bytes through, sniffing the first inbound frame on accepted
// connections: a data-role HELLO binds the connection to its peer node (so
// egress injection knows which link schedule applies); a report-role HELLO
// permanently exempts the connection.
func (c *faultConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rmu.Lock()
		if !c.sniffDone {
			c.sniff(p[:n])
		}
		c.rmu.Unlock()
	}
	return n, err
}

// sniff accumulates inbound bytes until the first frame is complete, then
// parses just enough of it (kind, role, node) to identify the peer.
// Called with rmu held.
func (c *faultConn) sniff(b []byte) {
	c.rbuf = append(c.rbuf, b...)
	size, n := binary.Uvarint(c.rbuf)
	if n <= 0 || size == 0 || size > wire.MaxFrame {
		if n < 0 || size > wire.MaxFrame {
			c.sniffDone = true // malformed; never inject on this conn
		}
		return // need more bytes
	}
	if uint64(len(c.rbuf)-n) < size {
		return // first frame not complete yet
	}
	payload := c.rbuf[n : n+int(size)]
	c.sniffDone = true
	c.rbuf = nil
	if len(payload) < 2 || wire.Kind(payload[0]) != wire.KindHello {
		return // protocol violation; leave the conn exempt
	}
	if payload[1] != wire.RoleData {
		return // report stream: exempt
	}
	node, n2 := binary.Uvarint(payload[2:])
	if n2 <= 0 {
		return
	}
	c.peer.Store(int64(node))
}

// Write reassembles the egress byte stream into frames and applies the
// link schedule to each complete one. One Write may carry many frames — the
// coalescing writer batches a burst of SYNs/ACKs into a single transport
// write — and each gets its own fate draw, so fault semantics stay
// per-frame, not per-write. A Write may equally end mid-frame (a bufio
// buffer spilling); the fragment waits in wbuf for the rest. It always
// reports the full input as written — a dropped frame is "sent" as far as
// the caller can tell, which is exactly the loss model the recovery
// protocol is built for.
func (c *faultConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.exempt {
		if _, err := c.Conn.Write(p); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	c.wbuf = append(c.wbuf, p...)
	for len(c.wbuf) > 0 {
		size, n := binary.Uvarint(c.wbuf)
		if n == 0 {
			break // incomplete header; wait for more bytes
		}
		if n < 0 || size == 0 || size > wire.MaxFrame {
			// An implausible header can never resolve into a frame: parsing
			// would otherwise stall (and buffer) this stream forever. Stop
			// injecting and pass everything through raw.
			c.exempt = true
			buffered := c.wbuf
			c.wbuf = nil
			if _, err := c.Conn.Write(buffered); err != nil {
				return 0, err
			}
			return len(p), nil
		}
		if uint64(len(c.wbuf)-n) < size {
			break // incomplete payload; wait for more bytes
		}
		total := n + int(size)
		frame := append([]byte(nil), c.wbuf[:total]...)
		c.wbuf = c.wbuf[total:]
		if err := c.writeFrame(frame); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// writeFrame applies the schedule to one complete egress frame. Called
// with wmu held.
func (c *faultConn) writeFrame(frame []byte) error {
	kind, ok := frameKind(frame)
	if !ok {
		_, err := c.Conn.Write(frame)
		return err
	}
	if !c.roleKnown {
		if kind == wire.KindHello {
			// The first egress frame is always our HELLO; its role byte
			// says whether this stream ever carries injectable traffic.
			c.roleKnown = true
			c.role = roleOf(frame)
		}
		_, err := c.Conn.Write(frame)
		return err
	}
	peer := int(c.peer.Load())
	if c.role != wire.RoleData || peer < 0 || (kind != wire.KindSyn && kind != wire.KindAck) {
		_, err := c.Conn.Write(frame)
		return err
	}

	t := c.t
	lk := t.link(peer)
	if t.noteSent() && t.CrashFn != nil {
		// The frame that reaches the threshold fires the crash whether or
		// not its write succeeds: a write to a peer that just died must not
		// cancel this node's scheduled crash. Deferred, so it runs after
		// the link lock is released.
		defer t.CrashFn()
	}
	if lk.rule == nil {
		_, err := c.Conn.Write(frame)
		return err
	}

	lk.mu.Lock()
	f := lk.decide()
	if f.delay > 0 {
		// Stalling under the link lock stalls everything queued behind this
		// frame on the connection — the intended head-of-line delay.
		t.delayed.Add(1)
		time.Sleep(f.delay)
	}
	var out [][]byte
	if f.drop {
		t.dropped.Add(1)
	} else if lk.held != nil {
		// A frame is waiting to be overtaken: this one goes first.
		out = append(out, frame)
		if f.dup {
			t.duplicated.Add(1)
			out = append(out, frame)
		}
		out = append(out, lk.held)
		lk.held = nil
		if lk.timer != nil {
			lk.timer.Stop()
			lk.timer = nil
		}
	} else if f.reorder {
		t.reordered.Add(1)
		lk.held = frame
		lk.heldC = c.Conn
		lk.timer = time.AfterFunc(reorderFlush, func() { lk.flushHeld() })
		if f.dup {
			// The duplicate travels now; the original arrives late.
			t.duplicated.Add(1)
			out = append(out, frame)
		}
	} else {
		out = append(out, frame)
		if f.dup {
			t.duplicated.Add(1)
			out = append(out, frame)
		}
	}
	var werr error
	for _, b := range out {
		if _, err := c.Conn.Write(b); err != nil {
			werr = err
			break
		}
	}
	lk.mu.Unlock()
	if werr != nil {
		return werr
	}
	if f.reset {
		t.resets.Add(1)
		_ = c.Conn.Close()
	}
	return nil
}

// flushHeld emits a reorder-held frame that was never overtaken (the link
// went idle). A write error here is ignored: the connection is dying, and
// the held frame becomes an ordinary loss for the recovery protocol.
func (lk *link) flushHeld() {
	lk.mu.Lock()
	b, conn := lk.held, lk.heldC
	lk.held = nil
	lk.heldC = nil
	lk.timer = nil
	lk.mu.Unlock()
	if b != nil && conn != nil {
		_, _ = conn.Write(b)
	}
}

// frameKind extracts the wire kind of a complete length-prefixed frame.
func frameKind(frame []byte) (wire.Kind, bool) {
	_, n := binary.Uvarint(frame)
	if n <= 0 || n >= len(frame) {
		return 0, false
	}
	return wire.Kind(frame[n]), true
}

// roleOf extracts the role byte of a complete HELLO frame.
func roleOf(frame []byte) byte {
	_, n := binary.Uvarint(frame)
	if n <= 0 || n+1 >= len(frame) {
		return wire.RoleData
	}
	return frame[n+1]
}
