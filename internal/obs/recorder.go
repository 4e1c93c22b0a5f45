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

// procLog is one process's events. With a ring, events has ring slots,
// events[n%ring] is the next to overwrite, and slot j's stamp is
// stamps[j*d:(j+1)*d]. One slab per process keeps a process's writes
// contiguous; a stamp allocated per slot scattered them across the heap
// and cost a 32-process node about 40% more CPU in Record.
type procLog struct {
	mu     sync.Mutex
	events []Event
	stamps vector.V // a ring's stamp slab; reallocated if the stamp width changes
	n      int      // events ever recorded: the next event's Seq
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
	l := r.log(e.Proc)
	l.mu.Lock()
	e.Seq = l.n
	if r.ring == 0 {
		e.Stamp = e.Stamp.Clone()
		l.events = append(l.events, e)
	} else {
		j, d := l.n%r.ring, len(e.Stamp)
		if len(l.stamps) != r.ring*d {
			l.stamps = make(vector.V, r.ring*d)
		}
		s := l.stamps[j*d : (j+1)*d : (j+1)*d]
		copy(s, e.Stamp)
		e.Stamp = s
		l.events[j] = e
	}
	l.n++
	l.mu.Unlock()
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
	grown[p] = &procLog{events: make([]Event, r.ring)}
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
	for _, l := range *r.logs.Load() {
		if l != nil {
			out = l.appendTo(out, r.ring)
		}
	}
	return out
}

// appendTo appends the log's held events to out, oldest first.
func (l *procLog) appendTo(out []Event, ring int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ring == 0 {
		// Recorded stamps are never written again, so they can be shared.
		return append(out, l.events...)
	}
	start := len(out)
	if l.n < ring {
		out = append(out, l.events[:l.n]...)
	} else {
		k := l.n % ring
		out = append(append(out, l.events[k:]...), l.events[:k]...)
	}
	for i := start; i < len(out); i++ {
		out[i].Stamp = out[i].Stamp.Clone() // the slab is reused
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
