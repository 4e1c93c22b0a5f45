// Package obs is the observability layer of the two runtimes: a metrics
// registry (counters, gauges, bounded histograms) and a structured event
// recorder that both internal/csp and internal/node feed, plus the
// exporters — a deterministic JSONL sink, a Chrome trace_event file, the
// flight dump order, and the /metrics, /healthz, /debug/flight and pprof
// HTTP endpoints cmd/tsnode serves.
//
// The design dogfoods the paper: every trace event carries the event's
// vector stamp, and cross-process ordering in the exported views is derived
// by topologically sorting on vector.Less (Theorem 4: v(m1) < v(m2) ⟺
// m1 ↦ m2) rather than on wall clocks. That makes the trace viewer itself an
// application of the timestamps it displays — and it makes the exports
// reproducible, because the stamps of a synchronous computation are
// interleaving-independent.
//
// # Determinism rules
//
//  1. Deterministic sinks (JSONL, Chrome) never contain wall-clock values:
//     JSONL timestamps are logical positions in the canonical (proc, seq)
//     order, Chrome timestamps are topological ranks of the stamps.
//  2. time.Now() is forbidden in this package (enforced by the obsdet
//     analyzer of cmd/tslint) except for the single Wall clock below, which
//     only ever feeds in-memory latency metrics, never an exported file.
//  3. Histogram bucket edges are fixed at construction, so two runs of the
//     same computation bucket identically.
//
// # Cost when disabled
//
// A nil *Obs (and nil *Counter, *Gauge, *Histogram, *Recorder) is the
// disabled state: every method is a no-op that performs zero allocations,
// so the runtimes call the hooks unconditionally on their hot paths.
package obs

import (
	"sync/atomic"
	"time"

	"syncstamp/internal/vector"
)

// Clock supplies timestamps for latency measurements. Production uses Wall;
// tests and deterministic experiments inject a Manual clock.
type Clock interface {
	// Now returns the current time in nanoseconds (or fake ticks).
	Now() int64
}

type wallClock struct{}

func (wallClock) Now() int64 {
	//nolint:obsdet Wall is the one sanctioned wall-clock source; it feeds only in-memory latency metrics, never a deterministic sink.
	return time.Now().UnixNano()
}

// Wall returns the real-time clock.
func Wall() Clock { return wallClock{} }

// Manual is a settable fake clock for deterministic tests and experiments.
// The zero value reads 0 until advanced.
type Manual struct {
	t atomic.Int64
}

// Now returns the current fake time.
func (m *Manual) Now() int64 { return m.t.Load() }

// Set moves the clock to t.
func (m *Manual) Set(t int64) { m.t.Store(t) }

// Advance moves the clock forward by d ticks and returns the new time.
func (m *Manual) Advance(d int64) int64 { return m.t.Add(d) }

// Obs bundles one run's observability surface: metrics, the event
// recorder, and the clock latency measurements are taken on. A nil *Obs is
// fully disabled.
type Obs struct {
	// Metrics is the run's registry; nil disables metrics, and with them
	// every clock read.
	Metrics *Registry
	// Recorder keeps the run's structured events; nil disables recording.
	Recorder *Recorder
	// Clock times latency observations. Nil falls back to Wall.
	Clock Clock
}

// New returns an enabled Obs with a fresh registry, a recorder that keeps
// every event, and the wall clock.
func New() *Obs {
	return &Obs{Metrics: NewRegistry(), Recorder: NewRecorder(0), Clock: Wall()}
}

// Registry returns the metrics registry; nil when disabled, which the
// registry's own methods tolerate.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Recording reports whether events are recorded. Callers check it before
// building an event's inputs that cost something, such as a clock snapshot.
func (o *Obs) Recording() bool { return o != nil && o.Recorder != nil }

// Now reads the clock; 0 when there is no registry, since the latency it
// would time has nowhere to go.
func (o *Obs) Now() int64 {
	if o == nil || o.Metrics == nil {
		return 0
	}
	if o.Clock == nil {
		return Wall().Now()
	}
	return o.Clock.Now()
}

// Rendezvous records one rendezvous phase of process proc with peer,
// carrying the vector the phase established (the pre-merge vector for
// PhaseSyn, the agreed stamp for PhaseMerge/PhaseAck/PhaseAdopt). node is
// the hosting node, or -1 for the in-process runtime.
func (o *Obs) Rendezvous(node, proc, peer int, ph Phase, stamp vector.V) {
	if o.Recording() {
		o.Recorder.Record(Event{Node: node, Proc: proc, Peer: peer, Phase: ph, Stamp: stamp})
	}
}

// Internal records an internal event with the process's current vector.
func (o *Obs) Internal(node, proc int, stamp vector.V, note string) {
	if o.Recording() {
		o.Recorder.Record(Event{Node: node, Proc: proc, Peer: -1, Phase: PhaseInternal, Stamp: stamp, Note: note})
	}
}
