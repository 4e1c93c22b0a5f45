package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"syncstamp/internal/obs"
	tssync "syncstamp/internal/sync"
)

// Transport establishes the duplex byte streams a Node speaks the wire
// protocol over: one stream per peer node for live rendezvous traffic, plus
// ad-hoc streams for log reports. Implementations must be safe for
// concurrent use.
type Transport interface {
	// Dial connects to the given node, retrying transient failures until
	// the deadline (peers start in arbitrary order, so the first attempts
	// may land before the peer listens).
	Dial(node int, deadline time.Time) (net.Conn, error)
	// Accept returns the next inbound stream. It unblocks with an error
	// after Close.
	Accept() (net.Conn, error)
	// Close stops listening and unblocks Accept. Established streams are
	// not touched.
	Close() error
}

// TCPTransport is the production transport: length-prefixed wire frames
// over TCP, one listener per node, dial with retry and exponential backoff.
type TCPTransport struct {
	ln net.Listener
	// closed ends retrying Dials once Close is called.
	closed    chan struct{}
	closeOnce sync.Once

	// Retries, when non-nil, counts failed dial attempts that were retried
	// (obs.MetricDialRetries). Set it before the node starts connecting.
	Retries *obs.Counter

	mu    sync.Mutex
	addrs []string
	// backoff supplies the dial retry delays (seeded jitter, capped
	// exponential), built on first Dial with a seed drawn from the
	// listener's port, so concurrent dialers on one host do not retry in
	// lockstep.
	backoff *tssync.Backoff
}

// Backoff bounds for TCPTransport dial retries and recoverPeer's redials.
const (
	dialBackoffMin = 25 * time.Millisecond
	dialBackoffMax = 500 * time.Millisecond
)

// NewTCPTransport starts listening on the given address. Use a ":0" port
// to let the kernel pick one; Addr reports the bound address. Peer
// addresses are supplied separately with SetPeers, so nodes can be brought
// up before the full address list is known.
func NewTCPTransport(listen string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("node: listen %s: %w", listen, err)
	}
	return &TCPTransport{ln: ln, closed: make(chan struct{})}, nil
}

// SetPeers installs the per-node dial addresses (addrs[j] is node j's
// listen address; the self entry is unused). It must be called before Dial.
func (t *TCPTransport) SetPeers(addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addrs = append([]string(nil), addrs...)
}

// Addr returns the locally bound listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Dial connects to the given node, retrying with seeded-jitter exponential
// backoff until the deadline or until Close.
func (t *TCPTransport) Dial(node int, deadline time.Time) (net.Conn, error) {
	t.mu.Lock()
	addrs := t.addrs
	if t.backoff == nil {
		// Derive the jitter seed from the bound port: stable per transport,
		// distinct per node on a shared host.
		var seed int64
		if t.ln != nil {
			if ta, ok := t.ln.Addr().(*net.TCPAddr); ok {
				seed = int64(ta.Port)
			}
		}
		t.backoff = tssync.NewBackoff(dialBackoffMin, dialBackoffMax, seed)
	}
	bo := t.backoff
	t.mu.Unlock()
	if node < 0 || node >= len(addrs) {
		return nil, fmt.Errorf("node: dial target %d out of range for %d addresses", node, len(addrs))
	}
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("node: dial node %d (%s): deadline exceeded", node, addrs[node])
		}
		c, err := net.DialTimeout("tcp", addrs[node], remaining)
		if err == nil {
			return c, nil
		}
		if dialFatal(err) {
			// Retrying cannot help a malformed address or an exhausted fd
			// table; surface the cause now instead of burning the deadline.
			return nil, fmt.Errorf("node: dial node %d (%s): %w", node, addrs[node], err)
		}
		t.Retries.Add(1)
		timer := time.NewTimer(min(bo.Delay(attempt), remaining))
		select {
		case <-timer.C:
		case <-t.closed:
			timer.Stop()
			return nil, fmt.Errorf("node: dial node %d (%s): transport closed", node, addrs[node])
		}
	}
}

// dialFatal distinguishes dial errors no retry can fix — a malformed
// address, a hostname that does not resolve, an exhausted fd table, a
// permission or address-family problem — from the transient "peer not up
// yet" class (connection refused/reset, unreachable, timeout). Unknown
// errors count as transient: peers start in arbitrary order, and the old
// retry-everything behavior is the safe default for errors this list has
// never seen.
func dialFatal(err error) bool {
	var ae *net.AddrError
	if errors.As(err, &ae) {
		return true
	}
	var dns *net.DNSError
	if errors.As(err, &dns) {
		return dns.IsNotFound
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.EMFILE, syscall.ENFILE, syscall.EACCES, syscall.EPERM, syscall.EAFNOSUPPORT, syscall.EPROTONOSUPPORT:
			return true
		}
	}
	return false
}

// Accept returns the next inbound TCP connection.
func (t *TCPTransport) Accept() (net.Conn, error) { return t.ln.Accept() }

// Close stops the listener and ends any retrying Dial.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	return t.ln.Close()
}

// Loop is an in-memory fabric connecting a fixed set of nodes with
// synchronous net.Pipe streams — the deterministic, port-free transport the
// tests and the check property run the full wire protocol over.
type Loop struct {
	accept []chan net.Conn
	done   []chan struct{}
	once   []sync.Once
}

// NewLoop returns a fabric for the given number of nodes.
func NewLoop(nodes int) *Loop {
	l := &Loop{
		accept: make([]chan net.Conn, nodes),
		done:   make([]chan struct{}, nodes),
		once:   make([]sync.Once, nodes),
	}
	for i := range l.accept {
		l.accept[i] = make(chan net.Conn)
		l.done[i] = make(chan struct{})
	}
	return l
}

// Transport returns the node-local view of the fabric for one node.
func (l *Loop) Transport(node int) Transport { return &loopTransport{l: l, self: node} }

type loopTransport struct {
	l    *Loop
	self int
}

func (t *loopTransport) Dial(node int, deadline time.Time) (net.Conn, error) {
	if node < 0 || node >= len(t.l.accept) {
		return nil, fmt.Errorf("node: dial target %d out of range for %d loop nodes", node, len(t.l.accept))
	}
	near, far := net.Pipe()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case t.l.accept[node] <- far:
		return near, nil
	case <-t.l.done[node]:
		_ = near.Close()
		_ = far.Close()
		return nil, fmt.Errorf("node: dial loop node %d: peer closed", node)
	case <-timer.C:
		_ = near.Close()
		_ = far.Close()
		return nil, fmt.Errorf("node: dial loop node %d: deadline exceeded", node)
	}
}

func (t *loopTransport) Accept() (net.Conn, error) {
	select {
	case c := <-t.l.accept[t.self]:
		return c, nil
	case <-t.l.done[t.self]:
		return nil, fmt.Errorf("node: loop transport %d closed", t.self)
	}
}

func (t *loopTransport) Close() error {
	t.l.once[t.self].Do(func() { close(t.l.done[t.self]) })
	return nil
}
