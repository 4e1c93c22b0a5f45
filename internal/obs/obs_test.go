package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"syncstamp/internal/vector"
)

// TestDisabledZeroAlloc pins the package's core promise: with observability
// disabled (nil receivers everywhere), every hook is allocation-free.
func TestDisabledZeroAlloc(t *testing.T) {
	stamp := vector.V{1, 2, 3}
	var o *Obs
	var c *Counter
	var g *Gauge
	var h *Histogram
	var rec *Recorder
	var r *Registry
	ev := Event{Proc: 1, Peer: 2, Phase: PhaseSyn, Stamp: stamp}
	allocs := testing.AllocsPerRun(200, func() {
		o.Rendezvous(0, 1, 2, PhaseSyn, stamp)
		o.Internal(0, 1, stamp, "note")
		_ = o.Now()
		c.Add(1)
		g.Set(7)
		h.Observe(42)
		rec.Record(ev)
		_ = c.Value()
		_ = g.Value()
		_ = rec.Events()
		_ = rec.Recorded()
		r.Counter("x").Add(1) // nil registry → nil counter → no-op
	})
	if allocs != 0 {
		t.Fatalf("disabled hooks allocated %v times per run, want 0", allocs)
	}
}

// TestEnabledInstrumentsZeroAlloc: once resolved, the hot-path instrument
// operations themselves are allocation-free too.
func TestEnabledInstrumentsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", TickEdges)
	allocs := testing.AllocsPerRun(200, func() {
		c.Add(1)
		g.Set(3)
		h.Observe(9)
	})
	if allocs != 0 {
		t.Fatalf("enabled instruments allocated %v times per run, want 0", allocs)
	}
}

func TestNilRegistryReturnsNilInstruments(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", TickEdges) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	for _, v := range []int64{1, 10, 11, 20, 39, 40, 41, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 2, 2, 2} // ≤10, ≤20, ≤40, overflow
	if len(s.Counts) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(want))
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, s.Counts[i], want[i])
		}
	}
	if s.Count != 8 || s.Sum != 1+10+11+20+39+40+41+1000 {
		t.Errorf("count/sum: got %d/%d", s.Count, s.Sum)
	}
	if q := s.Quantile(0); q != 10 {
		t.Errorf("p0: got %d, want 10", q)
	}
	if q := s.Quantile(0.5); q != 40 {
		t.Errorf("p50: got %d, want 40", q)
	}
	if q := s.Quantile(1); q != 41 {
		t.Errorf("p100 (overflow bucket): got %d, want 41", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile: got %d, want 0", q)
	}
}

func TestHistogramBadEdgesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending edges must panic")
		}
	}()
	NewHistogram([]int64{5, 5})
}

func TestRegistryFirstRegistrationWins(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("h", []int64{1, 2})
	h2 := r.Histogram("h", []int64{100})
	if h1 != h2 {
		t.Fatal("same name must return same histogram")
	}
	if got := h1.Snapshot().Edges; len(got) != 2 {
		t.Fatalf("edges overwritten: %v", got)
	}
	if r.Counter("c") != r.Counter("c") {
		t.Fatal("same name must return same counter")
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zz", "aa", "mm"} {
		r.Counter(name).Add(1)
		r.Gauge(name).Set(2)
		r.Histogram(name, TickEdges).Observe(3)
	}
	a, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", a, b)
	}
}

func TestManualClock(t *testing.T) {
	var m Manual
	o := &Obs{Metrics: NewRegistry(), Clock: &m}
	if o.Now() != 0 {
		t.Fatal("fresh manual clock must read 0")
	}
	m.Advance(5)
	m.Set(42)
	if o.Now() != 42 {
		t.Fatalf("got %d, want 42", o.Now())
	}
}

func TestRecorderSeqPerProcess(t *testing.T) {
	tr := NewRecorder(0)
	tr.Record(Event{Proc: 1, Phase: PhaseSyn, Stamp: vector.V{1, 0}})
	tr.Record(Event{Proc: 0, Phase: PhaseMerge, Stamp: vector.V{1, 1}})
	tr.Record(Event{Proc: 1, Phase: PhaseAdopt, Stamp: vector.V{1, 1}})
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	// Canonical order: proc 0 first, then proc 1's two events in seq order.
	if evs[0].Proc != 0 || evs[0].Seq != 0 {
		t.Errorf("event 0: %+v", evs[0])
	}
	if evs[1].Proc != 1 || evs[1].Seq != 0 || evs[1].Phase != PhaseSyn {
		t.Errorf("event 1: %+v", evs[1])
	}
	if evs[2].Proc != 1 || evs[2].Seq != 1 || evs[2].Phase != PhaseAdopt {
		t.Errorf("event 2: %+v", evs[2])
	}
}

func TestRecorderClonesStamp(t *testing.T) {
	tr := NewRecorder(0)
	stamp := vector.V{1, 0}
	tr.Record(Event{Proc: 0, Phase: PhaseSyn, Stamp: stamp})
	stamp[0] = 99
	if got := tr.Events()[0].Stamp[0]; got != 1 {
		t.Fatalf("stamp not cloned: got %d", got)
	}
}

// sampleTrace records one two-process rendezvous plus an internal event into
// two recorders with different interleavings; both must export identically.
func sampleTrace() (*Recorder, *Recorder) {
	a := []Event{
		{Node: 0, Proc: 0, Peer: 1, Phase: PhaseSyn, Stamp: vector.V{1, 0}},
		{Node: 0, Proc: 0, Peer: 1, Phase: PhaseAdopt, Stamp: vector.V{1, 1}},
		{Node: 0, Proc: 0, Peer: -1, Phase: PhaseInternal, Stamp: vector.V{1, 1}, Note: "done"},
	}
	b := []Event{
		{Node: 1, Proc: 1, Peer: 0, Phase: PhaseMerge, Stamp: vector.V{1, 1}},
		{Node: 1, Proc: 1, Peer: 0, Phase: PhaseAck, Stamp: vector.V{1, 1}},
	}
	t1, t2 := NewRecorder(0), NewRecorder(0)
	// Interleaving 1: all of proc 0, then proc 1.
	for _, e := range a {
		t1.Record(e)
	}
	for _, e := range b {
		t1.Record(e)
	}
	// Interleaving 2: alternating.
	t2.Record(a[0])
	t2.Record(b[0])
	t2.Record(a[1])
	t2.Record(b[1])
	t2.Record(a[2])
	return t1, t2
}

func TestCausalLatencies(t *testing.T) {
	evs := []Event{
		{Proc: 0, Seq: 0, Phase: PhaseSyn, Stamp: vector.V{1, 0}},   // sum 1
		{Proc: 0, Seq: 1, Phase: PhaseAdopt, Stamp: vector.V{2, 3}}, // sum 5 → 4
		{Proc: 1, Seq: 0, Phase: PhaseSyn, Stamp: vector.V{0, 1}},   // unmatched
		{Proc: 0, Seq: 2, Phase: PhaseSyn, Stamp: vector.V{3, 3}},   // sum 6
		{Proc: 0, Seq: 3, Phase: PhaseAdopt, Stamp: vector.V{4, 3}}, // sum 7 → 1
	}
	got := CausalLatencies(evs)
	want := []int64{4, 1}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStampRanksRespectCausality(t *testing.T) {
	evs := []Event{
		{Proc: 0, Seq: 0, Phase: PhaseSyn, Stamp: vector.V{1, 0, 0}},
		{Proc: 1, Seq: 0, Phase: PhaseMerge, Stamp: vector.V{1, 1, 0}},
		{Proc: 2, Seq: 0, Phase: PhaseInternal, Stamp: vector.V{0, 0, 1}}, // concurrent with both
		{Proc: 1, Seq: 1, Phase: PhaseAck, Stamp: vector.V{1, 2, 1}},
	}
	ranks := stampRanks(evs)
	stamps := []vector.V{{1, 0, 0}, {1, 1, 0}, {0, 0, 1}, {1, 2, 1}}
	for _, u := range stamps {
		for _, w := range stamps {
			if vector.Less(u, w) && ranks[u.String()] >= ranks[w.String()] {
				t.Errorf("rank order violates causality: %v (rank %d) !< %v (rank %d)",
					u, ranks[u.String()], w, ranks[w.String()])
			}
		}
	}
}

func TestChromeExportDeterministicAndOrdered(t *testing.T) {
	t1, t2 := sampleTrace()
	var b1, b2 bytes.Buffer
	if err := WriteChrome(&b1, t1.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b2, t2.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("chrome export not byte-identical:\n%s\n---\n%s", b1.String(), b2.String())
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b1.Bytes(), &file); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var send, recv *int64
	for i := range file.TraceEvents {
		e := file.TraceEvents[i]
		if strings.HasPrefix(e.Name, "send") {
			send = &file.TraceEvents[i].TS
		}
		if strings.HasPrefix(e.Name, "recv") {
			recv = &file.TraceEvents[i].TS
		}
	}
	if send == nil || recv == nil {
		t.Fatalf("missing spans in export:\n%s", b1.String())
	}
	// The send span starts at the SYN's pre-merge stamp (1,0), causally
	// before the receive's merged stamp (1,1).
	if *send >= *recv {
		t.Errorf("send span ts %d not before recv span ts %d", *send, *recv)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	o := New()
	o.Metrics.Counter("rendezvous_total").Add(7)
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v\n%s", err, body)
	}
	if snap.Counters["rendezvous_total"] != 7 {
		t.Errorf("/metrics counter: got %d, want 7", snap.Counters["rendezvous_total"])
	}

	code, body = get("/healthz")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz: status %d body %q", code, body)
	}

	code, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", code)
	}
}
