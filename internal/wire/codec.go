package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"syncstamp/internal/core"
	"syncstamp/internal/obs"
	"syncstamp/internal/vector"
)

// Frame is one decoded protocol frame. Which fields are meaningful depends
// on Kind; the codec ignores the rest.
type Frame struct {
	Kind Kind

	// HELLO fields. Epoch is the connection generation for one (dialer,
	// acceptor) node pair: 0 on a first connection, strictly larger on every
	// reconnect, so an acceptor can tell a session resume from a duplicate.
	Node   int
	Procs  []int
	Digest uint64
	Role   byte
	Epoch  int

	// SYN/ACK fields. Vec is the full piggybacked vector — delta
	// compression is codec-internal and never visible to callers. Seq is the
	// sender process's rendezvous sequence number (starting at 1); an ACK
	// echoes the Seq of the SYN it answers, which is what makes
	// retransmission and dedup possible under loss.
	From, To int
	Seq      uint64
	Vec      vector.V

	// INTERNAL fields.
	Proc int
	Note string

	// METRICS payload (node → root): the reporting node's registry
	// snapshot, for the root to merge into the cluster rollup.
	Metrics *obs.Snapshot
}

// GroupSummary is one edge group's fingerprint inside a shard summary: the
// multiset of message stamps the shard saw on the group, as a count and an
// order-independent XOR of per-stamp hashes, split by which half (send or
// recv) of the rendezvous the shard's processes logged. Summed across every
// shard, the send multiset and the recv multiset of a consistent run are
// identical — each message contributes one identical stamp to each — which
// is what lets the root judge cross-shard consistency in O(groups) memory.
type GroupSummary struct {
	Group                int
	SendCount, RecvCount uint64
	SendXor, RecvXor     uint64
	// RootSeq is the final group component of the group's star root process,
	// or -1 when this shard does not host that root (or the group is a
	// triangle). The root participates in every message of its group, so its
	// final component equals the group's message count in a correct run.
	RootSeq int64
}

// ShardSummary is the whole roll-up a leaf collector reports to its root:
// counts, spill accounting, the per-group fingerprints, and the first
// verification error, if any. It deliberately contains no per-record state.
// No frame carries it: check.ShardVerifier produces it, and internal/node's
// collector tree hands it from leaf to root in memory.
type ShardSummary struct {
	Leaf      int
	Procs     uint64 // processes that produced at least one record
	Sends     uint64
	Recvs     uint64
	Internals uint64
	Segments  uint64 // spill segments written
	Spilled   uint64 // spill bytes written
	Err       string // first verification or spill failure ("" = clean)
	Groups    []GroupSummary
}

// Verdict is the root's final judgment of a collected run, as
// check.CombineSummaries computes it from the shard summaries.
type Verdict struct {
	OK       bool
	Shards   int    // summaries received
	Messages uint64 // matched messages across the run
	Records  uint64 // records ingested across the run, internals included
	Problems []string
}

// pair keys the delta baselines: the ordered (from, to) process pair whose
// frames carry vectors from from to to.
type pair struct{ from, to int }

// Stats is per-kind frame accounting, indexed by Kind. Bytes include the
// length-prefix header, so sums match what the transport actually carried.
type Stats struct {
	Frames [KindMax]int
	Bytes  [KindMax]int
}

// add charges one encoded frame of n wire bytes to its kind.
func (s *Stats) add(k Kind, n int) {
	if int(k) < len(s.Frames) {
		s.Frames[k]++
		s.Bytes[k] += n
	}
}

// Merge folds another account into s.
func (s *Stats) Merge(o Stats) {
	for k := range s.Frames {
		s.Frames[k] += o.Frames[k]
		s.Bytes[k] += o.Bytes[k]
	}
}

// Total sums the account across kinds.
func (s Stats) Total() (frames, bytes int) {
	for k := range s.Frames {
		frames += s.Frames[k]
		bytes += s.Bytes[k]
	}
	return frames, bytes
}

// Kinds lists every frame kind, for iterating a Stats deterministically.
func Kinds() []Kind {
	return []Kind{KindHello, KindSyn, KindAck, KindInternal, KindBye, KindMetrics}
}

// Encoder writes frames to one stream, maintaining the per-pair delta
// baselines and the exact-size overhead accounting. An Encoder is not safe
// for concurrent use; internal/node serializes writes per connection.
//
// The steady-state encode path (SYN/ACK on an already-seen pair) performs
// zero allocations; bench_test.go pins that with AllocsPerRun.
type Encoder struct {
	w     *bufio.Writer
	d     int
	last  map[pair]vector.V
	buf   []byte
	batch bool

	// SelfContained forces every vector into dense form. Delta compression
	// assumes a lossless FIFO stream — encoder and decoder advance their
	// baselines in lockstep, so one dropped, duplicated, or reordered frame
	// corrupts every later vector on the pair. Recovery mode (retransmission
	// over faulty links) therefore trades the Singhal–Kshemkalyani byte
	// savings for frames that decode correctly in isolation.
	SelfContained bool

	// Overhead accumulates the exact piggyback cost of every SYN/ACK
	// encoded: the dense cost it would have paid next to the bytes the
	// chosen encoding actually paid.
	Overhead core.Overhead

	// Stats counts every frame written, by kind, header bytes included.
	Stats Stats
}

// NewEncoder returns an Encoder for vectors of length d.
func NewEncoder(w io.Writer, d int) *Encoder {
	return &Encoder{w: bufio.NewWriter(w), d: d, last: make(map[pair]vector.V)}
}

// SetBatch switches the encoder between flush-per-frame (the default, every
// Encode reaches the transport before returning) and batch mode, where
// frames accumulate in the write buffer until Flush — the coalescing mode
// internal/node drives with its flush-on-idle writer, trading one transport
// write per frame for one per burst.
func (e *Encoder) SetBatch(batch bool) { e.batch = batch }

// Flush forces every encoded frame onto the underlying stream. It is a
// cheap no-op when the buffer is empty.
func (e *Encoder) Flush() error {
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// Encode writes one frame; unless the encoder is in batch mode, the frame
// is flushed to the underlying stream before Encode returns.
//
// The payload is built into the recycled buffer after a reserved header
// gap, the length varint is placed right-aligned against the payload, and
// header plus payload go out in one contiguous Write — a stack-local header
// buffer handed to an io.Writer would escape and cost an allocation per
// frame.
func (e *Encoder) Encode(f *Frame) error {
	const maxHdr = binary.MaxVarintLen64
	if cap(e.buf) < maxHdr {
		e.buf = make([]byte, maxHdr)
	}
	full, err := e.appendPayload(e.buf[:maxHdr], f)
	if err != nil {
		return err
	}
	e.buf = full[:0]
	plen := len(full) - maxHdr
	if plen > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", plen, MaxFrame)
	}
	var hdr [maxHdr]byte
	n := binary.PutUvarint(hdr[:], uint64(plen))
	start := maxHdr - n
	copy(full[start:maxHdr], hdr[:n])
	if _, err := e.w.Write(full[start:]); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	if !e.batch {
		if err := e.Flush(); err != nil {
			return err
		}
	}
	e.Stats.add(f.Kind, n+plen)
	return nil
}

func (e *Encoder) appendPayload(dst []byte, f *Frame) ([]byte, error) {
	dst = append(dst, byte(f.Kind))
	switch f.Kind {
	case KindHello:
		dst = append(dst, f.Role)
		dst = appendUvarint(dst, uint64(f.Node))
		dst = appendUvarint(dst, f.Digest)
		dst = appendUvarint(dst, uint64(f.Epoch))
		dst = appendUvarint(dst, uint64(len(f.Procs)))
		for _, p := range f.Procs {
			dst = appendUvarint(dst, uint64(p))
		}
	case KindSyn, KindAck:
		if len(f.Vec) != e.d {
			return nil, fmt.Errorf("wire: %v carries a %d-component vector, codec is configured for d=%d", f.Kind, len(f.Vec), e.d)
		}
		dst = appendUvarint(dst, uint64(f.From))
		dst = appendUvarint(dst, uint64(f.To))
		dst = appendUvarint(dst, f.Seq)
		dst = e.appendVec(dst, f)
	case KindInternal:
		if len(f.Note) > MaxNote {
			return nil, fmt.Errorf("wire: note of %d bytes exceeds limit %d", len(f.Note), MaxNote)
		}
		dst = appendUvarint(dst, uint64(f.Proc))
		dst = appendUvarint(dst, uint64(len(f.Note)))
		dst = append(dst, f.Note...)
	case KindBye:
		// No payload beyond the kind byte.
	case KindMetrics:
		m := f.Metrics
		if m == nil {
			return nil, fmt.Errorf("wire: METRICS frame without a payload")
		}
		var err error
		if dst, err = appendNamedValues(dst, "counter", m.Counters); err != nil {
			return nil, err
		}
		if dst, err = appendNamedValues(dst, "gauge", m.Gauges); err != nil {
			return nil, err
		}
		if len(m.Histograms) > MaxMetrics {
			return nil, fmt.Errorf("wire: %d histograms exceed limit %d", len(m.Histograms), MaxMetrics)
		}
		dst = appendUvarint(dst, uint64(len(m.Histograms)))
		for _, name := range sortedNames(m.Histograms) {
			h := m.Histograms[name]
			if len(name) > MaxNote {
				return nil, fmt.Errorf("wire: metric name of %d bytes exceeds limit %d", len(name), MaxNote)
			}
			if len(h.Edges) > MaxEdges {
				return nil, fmt.Errorf("wire: histogram %q has %d edges, limit %d", name, len(h.Edges), MaxEdges)
			}
			if len(h.Counts) != len(h.Edges)+1 {
				return nil, fmt.Errorf("wire: histogram %q has %d counts for %d edges", name, len(h.Counts), len(h.Edges))
			}
			dst = appendUvarint(dst, uint64(len(name)))
			dst = append(dst, name...)
			dst = appendUvarint(dst, uint64(len(h.Edges)))
			for _, e := range h.Edges {
				dst = appendZigzag(dst, e)
			}
			for _, c := range h.Counts {
				dst = appendUvarint(dst, uint64(c))
			}
			dst = appendUvarint(dst, uint64(h.Count))
			dst = appendZigzag(dst, h.Sum)
		}
	default:
		return nil, fmt.Errorf("wire: cannot encode kind %v", f.Kind)
	}
	return dst, nil
}

// appendNamedValues encodes one name/value list of a METRICS frame, names
// in sorted order, so a snapshot has exactly one encoding.
func appendNamedValues(dst []byte, what string, vals map[string]int64) ([]byte, error) {
	if len(vals) > MaxMetrics {
		return nil, fmt.Errorf("wire: %d %ss exceed limit %d", len(vals), what, MaxMetrics)
	}
	dst = appendUvarint(dst, uint64(len(vals)))
	for _, name := range sortedNames(vals) {
		if len(name) > MaxNote {
			return nil, fmt.Errorf("wire: metric name of %d bytes exceeds limit %d", len(name), MaxNote)
		}
		dst = appendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = appendZigzag(dst, vals[name])
	}
	return dst, nil
}

// sortedNames returns a METRICS list's instrument names in wire order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// appendVec encodes f.Vec in whichever of dense/delta form is smaller,
// updates the (From, To) baseline, and charges the overhead account. The
// delta is computed against the baseline inline — no []Change materializes
// and the baseline is overwritten in place — so a warm pair costs no
// allocations.
func (e *Encoder) appendVec(dst []byte, f *Frame) []byte {
	if e.SelfContained {
		dst = append(dst, 0)
		for _, x := range f.Vec {
			dst = appendUvarint(dst, uint64(x))
		}
		size := 1 + denseLen(f.Vec)
		e.Overhead.Add(size, size)
		return dst
	}
	key := pair{f.From, f.To}
	base, ok := e.last[key]
	if !ok {
		base = vector.New(e.d)
		e.last[key] = base
	}
	changed, deltaBody := 0, 0
	for i, x := range f.Vec {
		if x != base[i] {
			changed++
			deltaBody += uvarintLen(uint64(i)) + uvarintLen(uint64(x))
		}
	}

	denseSize := 1 + denseLen(f.Vec)
	deltaSize := 1 + uvarintLen(uint64(changed)) + deltaBody
	if deltaSize < denseSize {
		dst = append(dst, 1)
		dst = appendUvarint(dst, uint64(changed))
		for i, x := range f.Vec {
			if x != base[i] {
				dst = appendUvarint(dst, uint64(i))
				dst = appendUvarint(dst, uint64(x))
			}
		}
		e.Overhead.Add(denseSize, deltaSize)
	} else {
		dst = append(dst, 0)
		for _, x := range f.Vec {
			dst = appendUvarint(dst, uint64(x))
		}
		e.Overhead.Add(denseSize, denseSize)
	}
	copy(base, f.Vec)
	return dst
}

func denseLen(v vector.V) int {
	n := 0
	for _, x := range v {
		n += uvarintLen(uint64(x))
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func appendUvarint(dst []byte, x uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	return append(dst, buf[:n]...)
}

// appendZigzag encodes a signed value as a zigzag uvarint (the encoding
// binary.PutVarint uses), so small negatives stay small on the wire.
func appendZigzag(dst []byte, x int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], x)
	return append(dst, buf[:n]...)
}

// Decoder reads frames from one stream, mirroring the Encoder's delta
// baselines. A Decoder is not safe for concurrent use.
type Decoder struct {
	r    *bufio.Reader
	d    int
	last map[pair]vector.V
	buf  []byte
}

// NewDecoder returns a Decoder for vectors of length d.
func NewDecoder(r io.Reader, d int) *Decoder {
	return &Decoder{r: bufio.NewReader(r), d: d, last: make(map[pair]vector.V)}
}

// Decode reads the next frame into a fresh Frame. It returns io.EOF only
// at a clean frame boundary; a stream truncated mid-frame is an
// ErrUnexpectedEOF-wrapping error.
func (d *Decoder) Decode() (*Frame, error) {
	f := new(Frame)
	if err := d.DecodeInto(f); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto reads the next frame into f, which a hot read loop reuses
// across frames. Every field of f is reset first, so nothing of an earlier
// frame survives; the slices and the Metrics a frame carries are fresh
// allocations the caller may keep. Errors are those of Decode.
func (d *Decoder) DecodeInto(f *Frame) error {
	*f = Frame{}
	size, err := binary.ReadUvarint(d.r)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("wire: read header: %w", err)
	}
	if size == 0 || size > MaxFrame {
		return fmt.Errorf("wire: implausible frame size %d", size)
	}
	if cap(d.buf) < int(size) {
		d.buf = make([]byte, size)
	}
	payload := d.buf[:size]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return fmt.Errorf("wire: read payload: %w", err)
	}
	return d.parse(payload, f)
}

// reader walks a payload with bounds checking.
type reader struct {
	b   []byte
	off int
}

func (r *reader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint at offset %d", r.off)
	}
	r.off += n
	return x, nil
}

// varint reads one zigzag-encoded signed value.
func (r *reader) varint() (int64, error) {
	x, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint at offset %d", r.off)
	}
	r.off += n
	return x, nil
}

func (r *reader) intField(name string, limit uint64) (int, error) {
	x, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if x > limit {
		return 0, fmt.Errorf("wire: %s %d exceeds limit %d", name, x, limit)
	}
	return int(x), nil
}

// count reads a list length of at most limit entries. Every entry takes at
// least one payload byte, so a count beyond the bytes left is rejected
// before the caller allocates for it.
func (r *reader) count(name string, limit uint64) (int, error) {
	n, err := r.intField(name, limit)
	if err != nil {
		return 0, err
	}
	if n > len(r.b)-r.off {
		return 0, fmt.Errorf("wire: %s %d overruns frame", name, n)
	}
	return n, nil
}

// str reads a length-prefixed string of at most limit bytes.
func (r *reader) str(name string, limit uint64) (string, error) {
	n, err := r.intField(name+" length", limit)
	if err != nil {
		return "", err
	}
	if r.off+n > len(r.b) {
		return "", fmt.Errorf("wire: %s of %d bytes overruns frame", name, n)
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("wire: truncated frame at offset %d", r.off)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (d *Decoder) parse(payload []byte, f *Frame) error {
	r := &reader{b: payload}
	kb, err := r.byte()
	if err != nil {
		return err
	}
	f.Kind = Kind(kb)
	switch f.Kind {
	case KindHello:
		if f.Role, err = r.byte(); err != nil {
			return err
		}
		if f.Node, err = r.intField("node", 1<<31); err != nil {
			return err
		}
		if f.Digest, err = r.uvarint(); err != nil {
			return err
		}
		if f.Epoch, err = r.intField("epoch", 1<<31); err != nil {
			return err
		}
		count, err := r.count("proc count", MaxProcs)
		if err != nil {
			return err
		}
		f.Procs = make([]int, count)
		for i := range f.Procs {
			if f.Procs[i], err = r.intField("proc", 1<<31); err != nil {
				return err
			}
		}
	case KindSyn, KindAck:
		if f.From, err = r.intField("from", 1<<31); err != nil {
			return err
		}
		if f.To, err = r.intField("to", 1<<31); err != nil {
			return err
		}
		if f.Seq, err = r.uvarint(); err != nil {
			return err
		}
		if f.Vec, err = d.readVec(r, f.From, f.To); err != nil {
			return err
		}
	case KindInternal:
		if f.Proc, err = r.intField("proc", 1<<31); err != nil {
			return err
		}
		n, err := r.intField("note length", MaxNote)
		if err != nil {
			return err
		}
		if r.off+n > len(r.b) {
			return fmt.Errorf("wire: note of %d bytes overruns frame", n)
		}
		f.Note = string(r.b[r.off : r.off+n])
		r.off += n
	case KindBye:
		// No payload.
	case KindMetrics:
		m := &obs.Snapshot{}
		if m.Counters, err = readNamedValues(r, "counter"); err != nil {
			return err
		}
		if m.Gauges, err = readNamedValues(r, "gauge"); err != nil {
			return err
		}
		count, err := r.count("histogram count", MaxMetrics)
		if err != nil {
			return err
		}
		m.Histograms = make(map[string]obs.HistogramSnapshot)
		var prev string
		for i := 0; i < count; i++ {
			name, err := r.str("metric name", MaxNote)
			if err != nil {
				return err
			}
			if i > 0 && name <= prev {
				return fmt.Errorf("wire: histogram names not strictly sorted at %q", name)
			}
			prev = name
			var h obs.HistogramSnapshot
			edges, err := r.count("edge count", MaxEdges)
			if err != nil {
				return err
			}
			if edges > 0 {
				h.Edges = make([]int64, edges)
				for j := range h.Edges {
					if h.Edges[j], err = r.varint(); err != nil {
						return err
					}
				}
			}
			h.Counts = make([]int64, edges+1)
			for j := range h.Counts {
				c, err := r.uvarint()
				if err != nil {
					return err
				}
				if c > 1<<62 {
					return fmt.Errorf("wire: implausible bucket count %d", c)
				}
				h.Counts[j] = int64(c)
			}
			cnt, err := r.uvarint()
			if err != nil {
				return err
			}
			if cnt > 1<<62 {
				return fmt.Errorf("wire: implausible histogram count %d", cnt)
			}
			h.Count = int64(cnt)
			if h.Sum, err = r.varint(); err != nil {
				return err
			}
			m.Histograms[name] = h
		}
		f.Metrics = m
	default:
		return fmt.Errorf("wire: unknown frame kind %d", kb)
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after %v frame", len(r.b)-r.off, f.Kind)
	}
	return nil
}

// readNamedValues decodes one name/value list of a METRICS frame. The
// bytes come from another process, so names must arrive strictly sorted:
// an unsorted or repeated name is a malformed frame.
func readNamedValues(r *reader, what string) (map[string]int64, error) {
	count, err := r.count(what+" count", MaxMetrics)
	if err != nil {
		return nil, err
	}
	vals := make(map[string]int64)
	var prev string
	for i := 0; i < count; i++ {
		name, err := r.str("metric name", MaxNote)
		if err != nil {
			return nil, err
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("wire: %s names not strictly sorted at %q", what, name)
		}
		prev = name
		if vals[name], err = r.varint(); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// readVec decodes a vector and advances the (from, to) baseline exactly as
// the encoder did. The returned vector is a fresh allocation (internal/node
// keeps it in mailboxes and logs past the next decode); the baseline is a
// separate array updated in place, so a warm SYN/ACK costs exactly the
// vector through DecodeInto and the vector plus the Frame through Decode —
// bench_test.go pins both.
func (d *Decoder) readVec(r *reader, from, to int) (vector.V, error) {
	mode, err := r.byte()
	if err != nil {
		return nil, err
	}
	key := pair{from, to}
	base, ok := d.last[key]
	if !ok {
		base = vector.New(d.d)
		d.last[key] = base
	}
	v := vector.New(d.d)
	switch mode {
	case 0: // dense
		for k := range v {
			if v[k], err = r.intField("component", 1<<62); err != nil {
				return nil, err
			}
		}
	case 1: // delta against the pair baseline
		count, err := r.intField("delta count", uint64(d.d))
		if err != nil {
			return nil, err
		}
		copy(v, base)
		for i := 0; i < count; i++ {
			idx, err := r.intField("delta index", uint64(d.d))
			if err != nil {
				return nil, err
			}
			val, err := r.intField("delta value", 1<<62)
			if err != nil {
				return nil, err
			}
			if idx >= len(v) {
				return nil, fmt.Errorf("wire: delta index %d out of range [0,%d)", idx, len(v))
			}
			v[idx] = val
		}
	default:
		return nil, fmt.Errorf("wire: unknown vector mode %d", mode)
	}
	copy(base, v)
	return v, nil
}
