// Package obs is the observability layer of the runtime: a metrics
// registry (counters, gauges, bounded histograms) and a structured event
// recorder that internal/node feeds (and so every csp run), plus the
// exporters — a Chrome trace_event file, the flight order that internal/node
// writes event files in, and the /metrics, /healthz, /debug/flight and
// pprof HTTP endpoints cmd/tsnode serves.
//
// The design dogfoods the paper: every trace event carries the event's
// vector stamp, and cross-process ordering in the exported views is derived
// from the stamps (Theorem 4: v(m1) < v(m2) ⟺ m1 ↦ m2, and the stamp sum
// strictly grows along ↦) rather than from wall clocks. That makes the
// trace viewer itself an application of the timestamps it displays — and it
// makes the exports reproducible, because the stamps of a synchronous
// computation are interleaving-independent.
//
// # Determinism rules
//
//  1. Deterministic sinks (event files, Chrome) never contain wall-clock
//     values: event files order events by stamp (SortFlight), Chrome
//     timestamps are the stamps' ranks in (sum, rendering) order.
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
// the hosting node; a csp run is one node, node 0.
func (o *Obs) Rendezvous(node, proc, peer int, ph Phase, stamp vector.V) {
	if o.Recording() {
		o.Recorder.record(node, proc, peer, ph, stamp, "")
	}
}

// Internal records an internal event with the process's current vector.
// The stamp is copied, so the caller may reuse its storage.
func (o *Obs) Internal(node, proc int, stamp vector.V, note string) {
	if o.Recording() {
		o.Recorder.record(node, proc, -1, PhaseInternal, stamp, note)
	}
}
