package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"syncstamp/internal/vector"
)

// TestFlightWraparound pins the ring discipline: a full ring overwrites the
// oldest events, the accounting distinguishes held from recorded, and the
// dump holds exactly the newest events in the deterministic stamp order.
func TestFlightWraparound(t *testing.T) {
	f := NewRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(Event{Proc: 0, Peer: 1, Phase: PhaseAdopt, Stamp: vector.V{i + 1, 0}})
	}
	if got := f.Recorded(); got != 10 {
		t.Fatalf("recorded %d, want 10", got)
	}
	events := f.Events()
	if got := len(events); got != 4 {
		t.Fatalf("ring holds %d, want 4", got)
	}
	SortFlight(events)
	// The survivors are the newest four (stamps 7..10), in ascending stamp
	// sum — the oldest six were overwritten.
	for i, e := range events {
		if want := i + 7; e.Stamp[0] != want {
			t.Errorf("dump[%d] stamp %v, want [%d 0]", i, e.Stamp, want)
		}
		if want := i + 6; e.Seq != want {
			t.Errorf("dump[%d] seq %d, want %d", i, e.Seq, want)
		}
	}
}

// TestFlightDumpDeterministicAcrossInterleavings: two recorders fed the same
// per-process event sequences under different global interleavings hold and
// dump identically — what they keep depends only on the computation. That
// holds for wrapped rings too, because each process keeps its own last
// events; a ring shared by the node would keep whichever events arrived
// last.
func TestFlightDumpDeterministicAcrossInterleavings(t *testing.T) {
	a := []Event{
		{Proc: 0, Peer: 1, Phase: PhaseAdopt, Stamp: vector.V{1, 1}},
		{Proc: 0, Peer: -1, Phase: PhaseInternal, Stamp: vector.V{1, 1}, Note: "x"},
		{Proc: 0, Peer: 1, Phase: PhaseSyn, Stamp: vector.V{1, 1}},
		{Proc: 0, Peer: 1, Phase: PhaseAdopt, Stamp: vector.V{2, 2}},
	}
	b := []Event{
		{Proc: 1, Peer: 0, Phase: PhaseMerge, Stamp: vector.V{1, 1}},
		{Proc: 1, Peer: 0, Phase: PhaseAck, Stamp: vector.V{1, 1}},
		{Proc: 1, Peer: 0, Phase: PhaseMerge, Stamp: vector.V{2, 2}},
	}
	for _, ring := range []int{8, 2} {
		r1, r2 := NewRecorder(ring), NewRecorder(ring)
		// Interleaving 1: all of proc 0, then proc 1.
		for _, e := range a {
			r1.Record(e)
		}
		for _, e := range b {
			r1.Record(e)
		}
		// Interleaving 2: proc 1 first, then alternating.
		r2.Record(b[0])
		r2.Record(a[0])
		r2.Record(b[1])
		r2.Record(a[1])
		r2.Record(a[2])
		r2.Record(b[2])
		r2.Record(a[3])
		e1, e2 := r1.Events(), r2.Events()
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("ring %d: events differ across interleavings:\n%v\n%v", ring, e1, e2)
		}
		// Each process keeps its own newest events, in seq order.
		var kept [2][]int
		for _, e := range e1 {
			kept[e.Proc] = append(kept[e.Proc], e.Seq)
		}
		for proc, seqs := range [][]Event{a, b} {
			var want []int
			for seq := max(0, len(seqs)-ring); seq < len(seqs); seq++ {
				want = append(want, seq)
			}
			if !reflect.DeepEqual(kept[proc], want) {
				t.Fatalf("ring %d: process %d kept seqs %v, want %v", ring, proc, kept[proc], want)
			}
		}
		SortFlight(e1)
		SortFlight(e2)
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("ring %d: dumps differ across interleavings:\n%v\n%v", ring, e1, e2)
		}
	}
}

// TestFlightRingMatchesKeepAll is the ring's property: fed the same
// random per-process event sequences in a random interleaving, a ring
// recorder's Events equal the last ring events of each process that a
// keep-all recorder holds, seq included. The sequences mix all five
// phases, notes (empty ones too), nodes -1 and up, peer -1, and now and
// then a stamp wider or narrower than the rest, over ring sizes 1 to 9.
func TestFlightRingMatchesKeepAll(t *testing.T) {
	phases := []Phase{PhaseSyn, PhaseMerge, PhaseAck, PhaseAdopt, PhaseInternal}
	for ring := 1; ring <= 9; ring++ {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(ring)))
			procs, d := 1+rng.Intn(4), rng.Intn(5)
			seqs := make([][]Event, procs)
			for p := range seqs {
				for k := rng.Intn(3 * ring); k > 0; k-- {
					e := Event{Node: rng.Intn(4) - 1, Proc: p, Peer: rng.Intn(procs+1) - 1, Phase: phases[rng.Intn(len(phases))]}
					if e.Phase == PhaseInternal {
						e.Peer = -1
						e.Note = []string{"", "n", fmt.Sprintf("note-%d-%d", p, k)}[rng.Intn(3)]
					}
					w := d
					if rng.Intn(8) == 0 {
						w = max(0, d+rng.Intn(3)-1)
					}
					e.Stamp = make(vector.V, w)
					for c := range e.Stamp {
						e.Stamp[c] = rng.Intn(50)
					}
					seqs[p] = append(seqs[p], e)
				}
			}
			ringRec, all := NewRecorder(ring, 0), NewRecorder(0)
			for left := append([][]Event(nil), seqs...); ; {
				var live []int
				for p, q := range left {
					if len(q) > 0 {
						live = append(live, p)
					}
				}
				if len(live) == 0 {
					break
				}
				p := live[rng.Intn(len(live))]
				e := left[p][0]
				left[p] = left[p][1:]
				ringRec.Record(e)
				all.Record(e)
				for c := range e.Stamp {
					e.Stamp[c] = -1 // recorders copy: the caller's vector is free again
				}
			}
			var want []Event // each process's last ring events, in (proc, seq) order
			for _, e := range all.Events() {
				if e.Seq >= len(seqs[e.Proc])-ring {
					want = append(want, e)
				}
			}
			if got := ringRec.Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("ring %d seed %d: ring holds\n%v\nkeep-all's last %d per process are\n%v", ring, seed, got, ring, want)
			}
			if ringRec.Recorded() != all.Recorded() {
				t.Fatalf("ring %d seed %d: recorded %d, keep-all %d", ring, seed, ringRec.Recorded(), all.Recorded())
			}
		}
	}
}

// TestFlightRingDropsOverwrittenNote pins the notes ring: once a
// rendezvous event overwrites the slot of an internal event, the note is
// gone from Events and from the ring's storage.
func TestFlightRingDropsOverwrittenNote(t *testing.T) {
	const ring = 3
	r := NewRecorder(ring)
	r.Record(Event{Proc: 0, Peer: -1, Phase: PhaseInternal, Stamp: vector.V{0, 0}, Note: "gone"})
	r.Record(Event{Proc: 0, Peer: -1, Phase: PhaseInternal, Stamp: vector.V{0, 0}, Note: "kept"})
	r.Record(Event{Proc: 0, Peer: 1, Phase: PhaseSyn, Stamp: vector.V{0, 0}})
	r.Record(Event{Proc: 0, Peer: 1, Phase: PhaseAdopt, Stamp: vector.V{1, 0}}) // overwrites "gone"
	want := []Event{
		{Proc: 0, Peer: -1, Seq: 1, Phase: PhaseInternal, Stamp: vector.V{0, 0}, Note: "kept"},
		{Proc: 0, Peer: 1, Seq: 2, Phase: PhaseSyn, Stamp: vector.V{0, 0}},
		{Proc: 0, Peer: 1, Seq: 3, Phase: PhaseAdopt, Stamp: vector.V{1, 0}},
	}
	if got := r.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	if l := (*r.logs.Load())[0]; l.notes[0] != "" || l.slots[0].note {
		t.Fatalf("overwritten slot still holds note %q (flag %v)", l.notes[0], l.slots[0].note)
	}
}

// TestFlightRecordAllocs pins the record path's cost: zero allocations
// disabled; in a ring, zero once the ring has wrapped and every slot's
// stamp storage is reused; when keeping every event, at most one (the
// stamp clone; the log's growth is amortized).
func TestFlightRecordAllocs(t *testing.T) {
	stamp := vector.V{1, 2, 3}
	var disabled *Recorder
	if allocs := testing.AllocsPerRun(200, func() {
		disabled.Record(Event{Proc: 1, Phase: PhaseAdopt, Stamp: stamp})
	}); allocs != 0 {
		t.Fatalf("disabled Record allocated %v times per run, want 0", allocs)
	}
	ring := NewRecorder(64, 1)
	for i := 0; i < 64; i++ {
		ring.Record(Event{Proc: 1, Phase: PhaseAdopt, Stamp: stamp})
	}
	if allocs := testing.AllocsPerRun(200, func() {
		ring.Record(Event{Proc: 1, Phase: PhaseAdopt, Stamp: stamp})
	}); allocs != 0 {
		t.Fatalf("steady-state ring Record allocated %v times per run, want 0", allocs)
	}
	all := NewRecorder(0, 1)
	if allocs := testing.AllocsPerRun(1000, func() {
		all.Record(Event{Proc: 1, Phase: PhaseAdopt, Stamp: stamp})
	}); allocs > 1 {
		t.Fatalf("keep-everything Record allocated %v times per run, want <= 1", allocs)
	}
}

func TestFlightDumpHook(t *testing.T) {
	f := NewRecorder(2)
	if f.RequestDump() {
		t.Fatal("RequestDump with no hook must report false")
	}
	fired := 0
	f.SetDumpHook(func() { fired++ })
	if !f.RequestDump() || fired != 1 {
		t.Fatalf("RequestDump: fired=%d", fired)
	}
	var nilf *Recorder
	nilf.SetDumpHook(func() {})
	if nilf.RequestDump() {
		t.Fatal("nil recorder must not fire dumps")
	}
}

// TestServeConcurrentScrape hammers the HTTP endpoints while the runtime
// mutates the registry and the recorder — the lock discipline must hold
// under the race detector. Every writer is a process the recorder has not
// seen, and records its first event only once scraping is under way, so
// scrapes race the recorder adding processes.
func TestServeConcurrentScrape(t *testing.T) {
	const writers = 8
	o := New()
	o.Recorder = NewRecorder(32)
	o.Recorder.SetDumpHook(func() {})
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	scraping := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-scraping
			for i := 0; i < 100; i++ {
				o.Metrics.Counter("rendezvous_total").Add(1)
				o.Metrics.Gauge(fmt.Sprintf("g%d", i%7)).Set(int64(i))
				o.Metrics.Histogram("h", TickEdges).Observe(int64(i))
				o.Rendezvous(0, w, (w+1)%writers, PhaseAdopt, vector.V{i, w})
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer once.Do(func() { close(scraping) }) // release writers even on failure
			for i := 0; i < 25; i++ {
				for _, path := range []string{"/metrics", "/debug/flight", "/debug/flight?dump=1"} {
					resp, err := http.Get(base + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", path, resp.StatusCode)
						return
					}
					once.Do(func() { close(scraping) })
				}
			}
		}()
	}
	wg.Wait()
	if got := o.Recorder.Recorded(); got != writers*100 {
		t.Fatalf("recorded %d events, want %d", got, writers*100)
	}
}

// TestFlightHTTP pins the /debug/flight response shape and the 404 when the
// recorder is disabled.
func TestFlightHTTP(t *testing.T) {
	o := &Obs{Metrics: NewRegistry()}
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled recorder: status %d, want 404", resp.StatusCode)
	}

	o.Recorder = NewRecorder(8)
	dumped := false
	o.Recorder.SetDumpHook(func() { dumped = true })
	o.Rendezvous(2, 0, 1, PhaseAdopt, vector.V{1, 1})
	resp, err = http.Get("http://" + srv.Addr() + "/debug/flight?dump=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight: status %d", resp.StatusCode)
	}
	var out struct {
		Recorded uint64 `json:"recorded"`
		Held     int    `json:"held"`
		Dumped   bool   `json:"dumped"`
		Events   []struct {
			Proc  int    `json:"proc"`
			Phase string `json:"phase"`
			Stamp []int  `json:"stamp"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("/debug/flight is not valid JSON: %v\n%s", err, body)
	}
	if out.Recorded != 1 || out.Held != 1 || !out.Dumped || len(out.Events) != 1 {
		t.Fatalf("unexpected response: %+v", out)
	}
	if !dumped {
		t.Fatal("?dump=1 did not fire the dump hook")
	}
	if out.Events[0].Phase != "adopt" || out.Events[0].Stamp[0] != 1 {
		t.Fatalf("event shape: %+v", out.Events[0])
	}
}
