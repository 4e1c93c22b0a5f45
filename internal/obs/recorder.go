package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"syncstamp/internal/vector"
)

// Recorder keeps a run's trace events, each process's in that process's own
// log. Under the Figure 5 stamps a process's event sequence is the same for
// every interleaving (Theorem 4), so the per-process logs are all a
// deterministic export needs: event files (flight dumps), Chrome traces and
// /debug/flight all read the one recorder.
//
// The mode is fixed at construction: a recorder keeps either every event
// (for post-run exports) or a ring of each process's last events (the
// always-on flight recorder, bounded so it can stay on in production).
//
// Recording takes no lock or map shared by two processes. A process's
// events are recorded only by its own goroutine, or by a journal Restore
// before the run starts, so the mutex of its log is contended only by
// readers. The log index is copy-on-write, which lets a process that joins
// mid-run (node's Join, behind csp's) record its first event while others
// run.
//
// A nil *Recorder is the disabled state: every method is a no-op that
// performs zero allocations.
type Recorder struct {
	ring int                        // per-process ring size; 0 keeps every event
	logs atomic.Pointer[[]*procLog] // indexed by process; nil for unseen ones
	mu   sync.Mutex                 // serializes index growth; guards dump
	dump func()                     // optional hook fired by RequestDump
}

// procLog is one process's events. Keeping every event, events holds them
// in order. A ring holds the last ring events in three arrays indexed by
// slot, slot n%ring being the next to overwrite: slots, each event's
// fields but its stamp and note; stamps, a slab in which slot j's stamp
// starts at j*stride; and notes, which only an event with a note writes.
// One slab per process keeps a process's writes contiguous; a stamp
// allocated per slot scattered them across the heap and cost a 32-process
// node about 40% more CPU in Record.
type procLog struct {
	mu     sync.Mutex
	events []Event
	slots  []slot
	stamps vector.V
	stride int // the widest stamp yet; the slab is re-laid if a wider one comes
	notes  []string
	n      int // events ever recorded: the next event's Seq
}

// slot is one ring event without its stamp and note. It holds no pointer,
// so recording writes no pointer into the ring, where an Event's stamp
// slice and note string put two pointer writes, write barriers included,
// on every event, and the GC never scans the slots.
type slot struct {
	node, peer int
	width      int32 // the stamp's length
	phase      Phase
	note       bool // notes holds the event's note
}

// NewRecorder returns a recorder that keeps each process's last ring
// events, or every event when ring is 0. The ring slots of procs are
// allocated now, so a runtime can pay for them before its run starts; a
// stamp slab waits for the process's first event, which fixes the stamp
// width. Any other process gets its log on its first event.
func NewRecorder(ring int, procs ...int) *Recorder {
	r := &Recorder{ring: max(ring, 0)}
	r.logs.Store(new([]*procLog))
	for _, p := range procs {
		r.log(p)
	}
	return r
}

// Record appends e to its process's log, numbering it with the process's
// next Seq. The stamp is copied, so callers may keep mutating their vector;
// a ring copies it into its slab, allocating nothing once the slab exists.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.record(e.Node, e.Proc, e.Peer, e.Phase, e.Stamp, e.Note)
}

// record is Record with the event's fields passed one by one, so the
// runtime's hooks build no Event on the hot path.
func (r *Recorder) record(node, proc, peer int, ph Phase, stamp vector.V, note string) {
	l := r.log(proc)
	l.mu.Lock()
	if r.ring == 0 {
		l.events = append(l.events, Event{Node: node, Proc: proc, Peer: peer, Seq: l.n, Phase: ph, Stamp: stamp.Clone(), Note: note})
	} else {
		j := l.n % r.ring
		if len(stamp) > l.stride {
			l.widen(len(stamp))
		}
		copy(l.stamps[j*l.stride:], stamp)
		if note != "" || l.slots[j].note {
			l.notes[j] = note // a rendezvous event overwriting a note drops it
		}
		l.slots[j] = slot{node: node, peer: peer, width: int32(len(stamp)), phase: ph, note: note != ""}
	}
	l.n++
	l.mu.Unlock()
}

// widen re-lays a ring's slab at stride w, keeping every held stamp. It
// runs at a process's first event, which fixes the stride for a runtime
// whose stamps all have the decomposition's width.
func (l *procLog) widen(w int) {
	grown := make(vector.V, len(l.slots)*w)
	for j, s := range l.slots {
		copy(grown[j*w:], l.stamps[j*l.stride:j*l.stride+int(s.width)])
	}
	l.stamps, l.stride = grown, w
}

// log returns process p's log, adding it on p's first event.
func (r *Recorder) log(p int) *procLog {
	if logs := *r.logs.Load(); p < len(logs) && logs[p] != nil {
		return logs[p]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	logs := *r.logs.Load()
	if p < len(logs) && logs[p] != nil {
		return logs[p]
	}
	grown := make([]*procLog, max(p+1, len(logs)))
	copy(grown, logs)
	grown[p] = &procLog{slots: make([]slot, r.ring), notes: make([]string, r.ring)}
	r.logs.Store(&grown)
	return grown[p]
}

// Events returns the held events in the canonical (proc, seq) order, which
// is the order the logs already keep, so nothing is sorted. The caller owns
// the slice; its stamps are read-only, since a recorder that keeps every
// event shares them.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for p, l := range *r.logs.Load() {
		if l != nil {
			out = l.appendTo(out, p, r.ring)
		}
	}
	return out
}

// appendTo appends the log's held events to out, oldest first. A ring
// rebuilds each event from its slot, its stamp copied out of the slab (the
// slab is reused) into one allocation for all of them.
func (l *procLog) appendTo(out []Event, proc, ring int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ring == 0 {
		// Recorded stamps are never written again, so they can be shared.
		return append(out, l.events...)
	}
	first := max(0, l.n-ring)
	stamps := make(vector.V, (l.n-first)*l.stride) // room for the widest
	for seq := first; seq < l.n; seq++ {
		j := seq % ring
		s := l.slots[j]
		stamp := stamps[:s.width:s.width]
		stamps = stamps[s.width:]
		copy(stamp, l.stamps[j*l.stride:])
		out = append(out, Event{Node: s.node, Proc: proc, Peer: s.peer, Seq: seq, Phase: s.phase, Stamp: stamp, Note: l.notes[j]})
	}
	return out
}

// Recorded returns how many events were ever recorded, including those a
// ring has since overwritten.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for _, l := range *r.logs.Load() {
		if l != nil {
			l.mu.Lock()
			n += uint64(l.n)
			l.mu.Unlock()
		}
	}
	return n
}

// SortFlight sorts events into the flight-dump order: ascending stamp sum
// first — a linearization consistent with happens-before, since along any
// causal chain the component sum strictly grows — then the canonical
// (proc, seq) order. Two recorders that hold the same events dump
// identically, whatever the arrival interleaving was.
func SortFlight(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		si, sj := StampSum(events[i].Stamp), StampSum(events[j].Stamp)
		if si != sj {
			return si < sj
		}
		if events[i].Proc != events[j].Proc {
			return events[i].Proc < events[j].Proc
		}
		return events[i].Seq < events[j].Seq
	})
}

// SetDumpHook installs the callback RequestDump fires — the runtime's
// dump-to-disk path, so external triggers (SIGQUIT, /debug/flight with
// ?dump=1) reach it without the HTTP layer knowing about journals.
func (r *Recorder) SetDumpHook(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dump = fn
	r.mu.Unlock()
}

// RequestDump fires the installed dump hook, if any, and reports whether
// one was installed.
func (r *Recorder) RequestDump() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	fn := r.dump
	r.mu.Unlock()
	if fn == nil {
		return false
	}
	fn()
	return true
}
