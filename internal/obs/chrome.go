package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one record of the Chrome trace_event format (the JSON
// object flavor with a top-level traceEvents array). Field order is fixed.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// stampRanks ranks the distinct stamps of the events by (stamp sum,
// rendering). A stamp's vector.Less-predecessors all have strictly smaller
// sums, so this is a linear extension of vector.Less — by Theorem 4 the
// causal order ↦, hence a truthful display timeline — and it is the ranking
// Kahn's algorithm with the same tie-break produces. It is identical across
// runs.
func stampRanks(events []Event) map[string]int {
	type stamp struct {
		sum int64
		key string
	}
	ranks := make(map[string]int)
	var stamps []stamp
	for _, e := range events {
		k := e.Stamp.String()
		if _, ok := ranks[k]; !ok {
			ranks[k] = 0
			stamps = append(stamps, stamp{StampSum(e.Stamp), k})
		}
	}
	sort.Slice(stamps, func(i, j int) bool {
		if stamps[i].sum != stamps[j].sum {
			return stamps[i].sum < stamps[j].sum
		}
		return stamps[i].key < stamps[j].key
	})
	for i, s := range stamps {
		ranks[s.key] = i
	}
	return ranks
}

// tickUS spaces stamp ranks out on the Chrome timeline so spans have visible
// width.
const tickUS = 10

// WriteChrome writes the events as a Chrome trace_event JSON file
// (chrome://tracing, Perfetto). Timestamps are the vector stamps' ranks
// (stampRanks), not wall clocks: causally ordered work is ordered on the
// timeline, concurrent work overlaps, and the file is byte-identical across
// runs. Each process is a thread; completed sends render as one span from
// SYN to adopt, receives as one span from merge to ACK, internal events as
// instants.
func WriteChrome(w io.Writer, events []Event) error {
	evs := append([]Event(nil), events...)
	SortEvents(evs)
	ranks := stampRanks(evs)
	ts := func(e Event) int64 { return int64(ranks[e.Stamp.String()]) * tickUS }

	file := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	span := func(name string, a, b Event) {
		start, end := ts(a), ts(b)
		if end < start {
			start, end = end, start
		}
		dur := end - start
		if dur == 0 {
			dur = tickUS / 2
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: name, Cat: "rendezvous", Ph: "X", TS: start, Dur: dur,
			PID: a.Node, TID: a.Proc,
			Args: map[string]string{"stamp": b.Stamp.String()},
		})
	}

	// Pair each process's phases in sequence order: a send is SYN…adopt, a
	// receive is the merge/ACK pair (either order — the two runtimes differ).
	pendingSend := make(map[int]*Event)
	pendingRecv := make(map[int]*Event)
	for i := range evs {
		e := evs[i]
		switch e.Phase {
		case PhaseSyn:
			pendingSend[e.Proc] = &evs[i]
		case PhaseAdopt:
			if s := pendingSend[e.Proc]; s != nil {
				span(fmt.Sprintf("send P%d→P%d", e.Proc, e.Peer), *s, e)
				delete(pendingSend, e.Proc)
			}
		case PhaseMerge, PhaseAck:
			if r := pendingRecv[e.Proc]; r != nil {
				span(fmt.Sprintf("recv P%d←P%d", e.Proc, e.Peer), *r, e)
				delete(pendingRecv, e.Proc)
			} else {
				pendingRecv[e.Proc] = &evs[i]
			}
		case PhaseInternal:
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "internal", Cat: "internal", Ph: "i", TS: ts(e),
				PID: e.Node, TID: e.Proc, S: "t",
				Args: map[string]string{"stamp": e.Stamp.String(), "note": e.Note},
			})
		}
	}
	// Unpaired halves (e.g. a run cut off mid-rendezvous) surface as instants
	// rather than vanishing.
	leftover := make([]Event, 0, len(pendingSend)+len(pendingRecv))
	var procs []int
	for p := range pendingSend {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		leftover = append(leftover, *pendingSend[p])
	}
	procs = procs[:0]
	for p := range pendingRecv {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		leftover = append(leftover, *pendingRecv[p])
	}
	SortEvents(leftover)
	for _, e := range leftover {
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: fmt.Sprintf("unpaired %s P%d⇄P%d", e.Phase, e.Proc, e.Peer),
			Cat:  "rendezvous", Ph: "i", TS: ts(e), PID: e.Node, TID: e.Proc, S: "t",
			Args: map[string]string{"stamp": e.Stamp.String()},
		})
	}

	sort.SliceStable(file.TraceEvents, func(i, j int) bool {
		return file.TraceEvents[i].TS < file.TraceEvents[j].TS
	})
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(file); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return bw.Flush()
}
