package wire

import (
	"encoding/binary"
	"fmt"

	"syncstamp/internal/vector"
)

// Relay carries one stream's SYN and ACK frames to a reader that gets some
// of them twice, late or never, as a link that drops, duplicates and
// reorders frames inside a live connection delivers them. Per-pair deltas
// decode only in lockstep, so the relay keeps both sides' baselines: Parse
// advances the writer's on every frame written, and Emit encodes a frame as
// a delta against the reader's, advancing them for frames the reader gets.
// Baselines grow on demand, absent components reading as zero, so a relay
// needs no vector length. A warm Parse and Emit allocate nothing. A Relay
// is not safe for concurrent use.
type Relay struct {
	sent, recv map[uint64]vector.V // by pairKey
	buf        []byte              // Emit's (index, value) list
}

// NewRelay returns a Relay for a fresh stream.
func NewRelay() *Relay {
	return &Relay{sent: make(map[uint64]vector.V), recv: make(map[uint64]vector.V)}
}

// Parse decodes frame, one SYN or ACK as an Encoder wrote it (length
// prefix included), in place into f, and advances the writer's baseline
// for its pair. f.Vec is that baseline, valid until the pair's next Parse.
func (r *Relay) Parse(frame []byte, f *Frame) error {
	size, n := binary.Uvarint(frame)
	if n <= 0 || size != uint64(len(frame)-n) || size == 0 {
		return fmt.Errorf("wire: relay: %d-byte frame does not match its length prefix", len(frame))
	}
	if *f = (Frame{Kind: Kind(frame[n])}); f.Kind != KindSyn && f.Kind != KindAck {
		return fmt.Errorf("wire: relay: %v frame carries no vector", f.Kind)
	}
	rd := &reader{b: frame[n:], off: 1}
	var err error
	field := func(name string, limit uint64) int { // sticky: the first error stands
		x, e := rd.intField(name, limit)
		if err == nil {
			err = e
		}
		return x
	}
	f.From, f.To = field("from", 1<<31), field("to", 1<<31)
	if err == nil {
		f.Seq, err = rd.uvarint()
	}
	mode := field("vector mode", 1)
	key := pairKey(f.From, f.To)
	base := r.sent[key]
	if err == nil && mode == 0 { // dense: every component, up to the frame's end
		base = base[:0]
		for err == nil && rd.off < len(rd.b) {
			base = append(base, field("component", 1<<62))
		}
	} else if err == nil { // delta against the writer's baseline
		for count, i := field("delta count", MaxFrame), 0; err == nil && i < count; i++ {
			idx, val := field("delta index", MaxFrame), field("delta value", 1<<62)
			for len(base) <= idx {
				base = append(base, 0)
			}
			base[idx] = val
		}
	}
	if err == nil && rd.off != len(rd.b) {
		err = fmt.Errorf("wire: %d trailing bytes after %v frame", len(rd.b)-rd.off, f.Kind)
	}
	r.sent[key] = base
	f.Vec = base
	return err
}

// Emit appends f, a SYN or ACK, to dst as the reader's decoder expects it
// next: a delta against the reader's baseline for its pair, which it then
// advances. A frame emitted twice is delivered twice.
func (r *Relay) Emit(dst []byte, f *Frame) []byte {
	key := pairKey(f.From, f.To)
	base := r.recv[key]
	for len(base) < len(f.Vec) {
		base = append(base, 0)
	}
	r.buf = r.buf[:0]
	changed := 0
	for i, x := range base {
		v := 0
		if i < len(f.Vec) {
			v = f.Vec[i]
		}
		if v != x {
			r.buf = appendUvarint(appendUvarint(r.buf, uint64(i)), uint64(v))
			base[i] = v
			changed++
		}
	}
	r.recv[key] = base
	size := 2 + uvarintLen(uint64(f.From)) + uvarintLen(uint64(f.To)) + uvarintLen(f.Seq) + uvarintLen(uint64(changed)) + len(r.buf)
	dst = append(appendUvarint(dst, uint64(size)), byte(f.Kind))
	dst = appendUvarint(dst, uint64(f.From))
	dst = appendUvarint(dst, uint64(f.To))
	dst = appendUvarint(dst, f.Seq)
	dst = appendUvarint(append(dst, 1), uint64(changed))
	return append(dst, r.buf...)
}
