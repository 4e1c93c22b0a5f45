// Package wire is the deterministic binary codec of the rendezvous protocol
// internal/node speaks over real transports. Today "message overhead" is the
// paper's headline number (Section 3.2: d piggybacked components instead of
// Fidge–Mattern's N); this package is where those bytes are actually paid,
// frame by frame, so the claim can be measured on a wire instead of merely
// counted.
//
// # Frames
//
// Every frame is a uvarint length prefix followed by a payload whose first
// byte is the frame kind:
//
//	HELLO     handshake: node id, hosted process ids, a digest of the
//	          decomposition + placement (both ends must agree on the
//	          topology before any clock bytes flow), and a role byte
//	          (data stream vs log-report stream)
//	SYN       rendezvous phase 1, sender → receiver: (from, to) process
//	          pair and the sender's piggybacked vector
//	ACK       rendezvous phase 2, receiver → sender: (from, to) process
//	          pair and the merged stamp v(m) the receiver computed per
//	          Figure 5
//	INTERNAL  an internal-event note (Section 5), used when a node reports
//	          its per-process logs to the collector
//	BYE       clean end of stream; an EOF after BYE is a graceful close,
//	          an EOF without one is a failure
//	METRICS   an obs.Snapshot riding the report path, node → collecting
//	          root: named counters, gauges, and histograms (the encoder
//	          writes names sorted, the decoder rejects any other order),
//	          which the root merges into one cluster rollup — counters and
//	          gauges add, histograms merge bucket-wise. It names no node:
//	          the report stream's HELLO already does
//
// # Differential vector encoding
//
// SYN and ACK carry a vector. Consecutive vectors between the same ordered
// process pair share most components — a process's clock changes by one
// merge per rendezvous — so the codec keeps, per ordered (from, to) pair and
// per stream, the last vector carried, and encodes only the components that
// changed since (Singhal–Kshemkalyani differential piggybacking, Section 6
// of the paper; cf. Vaidya & Kulkarni, "Efficient Timestamps for Capturing
// Causality"). Each vector is encoded in whichever of the two forms is
// smaller:
//
//	dense  0x00, then all d components as uvarints
//	delta  0x01, then the change count, then (index, value) uvarint pairs
//
// Both ends start every pair's baseline at the zero vector of length d, and
// both update it on every SYN/ACK they encode or decode, so the streams stay
// in lockstep without negotiation. The encoder charges every vector frame to
// a core.Overhead — the exact dense cost next to the exact bytes sent — which
// is how experiment E20 reports real wire bytes against dense encoding.
package wire

import "fmt"

// Kind discriminates frame types.
type Kind byte

// Frame kinds.
const (
	KindHello Kind = iota + 1
	KindSyn
	KindAck
	KindInternal
	KindBye
	KindMetrics

	// KindMax is one past the highest kind — the size of per-kind arrays.
	KindMax
)

// String names the frame kind.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "HELLO"
	case KindSyn:
		return "SYN"
	case KindAck:
		return "ACK"
	case KindInternal:
		return "INTERNAL"
	case KindBye:
		return "BYE"
	case KindMetrics:
		return "METRICS"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Stream roles carried by HELLO.
const (
	// RoleData is a peer connection carrying live SYN/ACK traffic.
	RoleData byte = 0
	// RoleReport is a log-report connection to the collector node.
	RoleReport byte = 1
)

// Limits enforced by the decoder, so corrupt or adversarial input fails
// with an error instead of an allocation.
const (
	// MaxFrame bounds a frame payload in bytes.
	MaxFrame = 1 << 20
	// MaxNote bounds an INTERNAL note in bytes.
	MaxNote = 1 << 16
	// MaxProcs bounds the process list of a HELLO.
	MaxProcs = 1 << 16
	// MaxMetrics bounds each instrument list of a METRICS frame.
	MaxMetrics = 1 << 16
	// MaxEdges bounds a METRICS histogram's bucket-edge list.
	MaxEdges = 1 << 10
)
