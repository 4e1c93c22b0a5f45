package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 when nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric. A nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last set value; 0 when nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded histogram with bucket edges fixed at construction
// (upper bounds, ascending; one implicit overflow bucket above the last
// edge). Fixed edges keep two runs of the same computation bucketing
// identically — a determinism rule of this package. A nil *Histogram is a
// no-op.
type Histogram struct {
	edges      []int64
	buckets    []atomic.Int64 // len(edges)+1; buckets[i] counts v <= edges[i], last is overflow
	count, sum atomic.Int64
}

// NewHistogram returns a histogram with the given ascending upper-bound
// edges. Typically obtained through Registry.Histogram instead.
func NewHistogram(edges []int64) *Histogram {
	if err := checkEdges(edges); err != nil {
		panic(err.Error())
	}
	h := &Histogram{edges: append([]int64(nil), edges...)}
	h.buckets = make([]atomic.Int64, len(edges)+1)
	return h
}

// checkEdges refuses edges that do not strictly ascend.
func checkEdges(edges []int64) error {
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return fmt.Errorf("obs: histogram edges not ascending at %d: %v", i, edges)
		}
	}
	return nil
}

// Observe records one value. Allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.edges) && v > h.edges[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Edges are the bucket upper bounds; Counts has one extra final entry
	// for observations above the last edge.
	Edges  []int64 `json:"edges"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Edges:  append([]int64(nil), h.edges...),
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the edge
// of the bucket the quantile falls in, or the last edge + 1 for the
// overflow bucket. Zero observations yield 0.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen > rank {
			if i < len(s.Edges) {
				return s.Edges[i]
			}
			return s.Edges[len(s.Edges)-1] + 1
		}
	}
	return s.Edges[len(s.Edges)-1] + 1
}

// Default bucket edges.
var (
	// LatencyEdges buckets wall-clock latencies in nanoseconds, 1µs–10s,
	// on a log-spaced 1-2-5 ladder. Decade-only buckets made p50 and p99
	// quantize to the same edge on any workload whose latencies span less
	// than 10x, as a loop rendezvous's latencies do; three edges
	// per decade keeps the quantile bound within a factor ~2.5 of the
	// true value while the scan stays a couple dozen compares.
	LatencyEdges = []int64{
		1e3, 2e3, 5e3,
		1e4, 2e4, 5e4,
		1e5, 2e5, 5e5,
		1e6, 2e6, 5e6,
		1e7, 2e7, 5e7,
		1e8, 2e8, 5e8,
		1e9, 2e9, 5e9,
		1e10,
	}
	// TickEdges buckets logical (causal) latencies in ticks.
	TickEdges = []int64{1, 2, 4, 8, 16, 32, 64, 128}
)

// Merge folds a snapshot's observations into the live histogram. The
// snapshot must have the same edges (the cluster rollup only ever merges
// instruments registered under the same name, which fixes the edges);
// mismatched edges are an error, not a silent re-bucketing.
func (h *Histogram) Merge(s HistogramSnapshot) error {
	if h == nil {
		return nil
	}
	if len(s.Edges) == 0 && s.Count == 0 {
		return nil // empty snapshot (e.g. from a nil histogram)
	}
	if len(s.Edges) != len(h.edges) {
		return fmt.Errorf("obs: merging histogram with %d edges into %d", len(s.Edges), len(h.edges))
	}
	for i := range h.edges {
		if s.Edges[i] != h.edges[i] {
			return fmt.Errorf("obs: merging histogram with edge %d=%d into %d", i, s.Edges[i], h.edges[i])
		}
	}
	if len(s.Counts) != len(h.buckets) {
		return fmt.Errorf("obs: histogram snapshot has %d counts for %d buckets", len(s.Counts), len(h.buckets))
	}
	for i, c := range s.Counts {
		h.buckets[i].Add(c)
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	return nil
}

// Registry holds a run's named metrics. Registration (Counter, Gauge,
// Histogram) locks and may allocate — runtimes resolve their instruments
// once at startup; the instruments themselves are then lock- and
// allocation-free. A nil *Registry returns nil instruments, which no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given edges
// on first use. Later calls ignore edges (the first registration wins).
func (r *Registry) Histogram(name string, edges []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(edges)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry, JSON-marshalable with
// deterministic (sorted) key order.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Merge folds a snapshot into the registry: counters and gauges add (the
// rollup semantics — a cluster total is the sum of its nodes), histograms
// merge bucket-wise. Missing instruments are created, histograms with the
// snapshot's own edges, so merging into an empty registry reproduces the
// snapshot exactly. A histogram whose edges do not ascend or do not match
// the registered ones, or whose counts are not one per bucket, is refused.
// Merge is commutative and associative over snapshots, which is what lets
// the collector tree roll registries up in any leaf order.
func (r *Registry) Merge(s Snapshot) error {
	if r == nil {
		return nil
	}
	var names []string
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Counter(name).Add(s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := r.Gauge(name)
		g.Set(g.Value() + s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		hs := s.Histograms[name]
		if len(hs.Edges) == 0 {
			continue // snapshot of a nil/empty histogram carries nothing
		}
		// A snapshot may come from another node: edges that could not
		// register a histogram are an error here, not a panic.
		if err := checkEdges(hs.Edges); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := r.Histogram(name, hs.Edges).Merge(hs); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// Snapshot copies every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Counters[name] = r.counters[name].Value()
	}
	names = names[:0]
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Gauges[name] = r.gauges[name].Value()
	}
	names = names[:0]
	for name := range r.histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Histograms[name] = r.histograms[name].Snapshot()
	}
	return s
}
