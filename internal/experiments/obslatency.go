package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"

	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/node"
	"syncstamp/internal/obs"
	"syncstamp/internal/trace"
	"syncstamp/internal/wire"
)

// e21 exercises the observability layer end to end: for each topology
// family it replays a generated computation over a two-node in-memory Loop
// cluster with tracing enabled (fake clock — no wall time anywhere) and
// summarizes what the obs exports measure. Causal latency — the stamp-sum
// growth a sender observes across one rendezvous — is computed purely from
// vector stamps, so the histograms are identical for every interleaving and
// this experiment is deterministic despite running the full concurrent wire
// protocol. The frame/byte breakdown comes from the same wire.Stats counters
// a tsnode -obs-addr run serves on /metrics.
func e21() Experiment {
	return Experiment{
		ID:    "E21",
		Title: "Observability: causal rendezvous latency and wire frames by topology family",
		Run: func(w io.Writer) error {
			rng := rand.New(rand.NewSource(21))
			cases := []struct {
				name string
				g    *graph.Graph
			}{
				{"path:8", graph.Path(8)},
				{"star:8", graph.Star(8, 0)},
				{"clientserver:2x6", graph.ClientServer(2, 6, false)},
				{"complete:6", graph.Complete(6)},
			}
			const msgs = 120

			type result struct {
				dec    *decomp.Decomposition
				snap   obs.HistogramSnapshot
				frames wire.Stats
			}
			results := make([]result, len(cases))
			for i, c := range cases {
				tr := trace.Generate(c.g, trace.GenOptions{Messages: msgs, InternalProb: 0.1, Hotspot: 0.3}, rng)
				dec := decomp.Best(c.g)
				events, frames, err := runObsCluster(tr, dec)
				if err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
				h := obs.NewHistogram(obs.TickEdges)
				for _, l := range obs.CausalLatencies(events) {
					h.Observe(l)
				}
				results[i] = result{dec: dec, snap: h.Snapshot(), frames: frames}
			}

			t := newTable(w)
			t.row("topology", "N", "d", "sends", "mean", "p50<=", "p90<=", "ticks histogram")
			for i, c := range cases {
				s := results[i].snap
				t.row(c.name, c.g.N(), results[i].dec.D(), s.Count,
					fmt.Sprintf("%.1f", float64(s.Sum)/float64(s.Count)),
					s.Quantile(0.5), s.Quantile(0.9), sketchHistogram(s))
			}
			if err := t.flush(); err != nil {
				return err
			}

			fmt.Fprintln(w)
			t = newTable(w)
			t.row("topology", "hello B", "syn B", "ack B", "bye B", "total frames", "total B")
			for i, c := range cases {
				f := results[i].frames
				frames, bytes := f.Total()
				t.row(c.name,
					f.Bytes[wire.KindHello], f.Bytes[wire.KindSyn],
					f.Bytes[wire.KindAck], f.Bytes[wire.KindBye],
					frames, bytes)
			}
			if err := t.flush(); err != nil {
				return err
			}
			fmt.Fprintln(w, "processes alternate between two Loop nodes (placement i%2), so roughly half")
			fmt.Fprintln(w, "the rendezvous cross the wire; causal latency counts the rendezvous a sender")
			fmt.Fprintln(w, "newly learns of through one exchange, so the tail buckets are exchanges that")
			fmt.Fprintln(w, "flush a backlog of transitively-learned rendezvous — heaviest where news")
			fmt.Fprintln(w, "travels hop by hop (path) or through a hub (star), lighter on complete:6's")
			fmt.Fprintln(w, "direct links over fewer processes.")
			return nil
		},
	}
}

// runObsCluster replays tr over a two-node Loop cluster with per-node
// tracing under a fake clock and returns the merged trace events plus the
// cluster's combined sent-frame accounting.
func runObsCluster(tr *trace.Trace, dec *decomp.Decomposition) ([]obs.Event, wire.Stats, error) {
	placement := make([]int, tr.N)
	for i := range placement {
		placement[i] = i % 2
	}
	programs := replayPrograms(tr)
	l := node.NewLoop(2)
	oses := [2]*obs.Obs{obs.New(), obs.New()}
	for _, o := range oses {
		o.Clock = &obs.Manual{}
	}
	var (
		wg     sync.WaitGroup
		frames [2]wire.Stats
		errs   [2]error
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := node.New(node.Config{Node: i, Placement: placement, Dec: dec, Obs: oses[i]}, l.Transport(i))
			if err != nil {
				errs[i] = err
				return
			}
			defer n.Close()
			info, err := n.Run(programs)
			if err != nil {
				errs[i] = err
				return
			}
			frames[i] = info.Frames
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, wire.Stats{}, err
		}
	}
	var events []obs.Event
	var total wire.Stats
	for i, o := range oses {
		events = append(events, o.Recorder.Events()...)
		total.Merge(frames[i])
	}
	obs.SortEvents(events)
	return events, total, nil
}

// replayPrograms turns a trace into per-process replay programs. Receives
// use RecvFrom, which makes replaying the per-process projections of a
// synchronous computation deadlock-free.
func replayPrograms(tr *trace.Trace) map[int]func(*node.Process) error {
	type op struct {
		send, internal bool
		peer           int
	}
	seqs := make([][]op, tr.N)
	for _, o := range tr.Ops {
		switch o.Kind {
		case trace.OpMessage:
			seqs[o.From] = append(seqs[o.From], op{send: true, peer: o.To})
			seqs[o.To] = append(seqs[o.To], op{peer: o.From})
		case trace.OpInternal:
			seqs[o.Proc] = append(seqs[o.Proc], op{internal: true})
		}
	}
	programs := make(map[int]func(*node.Process) error, tr.N)
	for p := 0; p < tr.N; p++ {
		ops := seqs[p]
		programs[p] = func(proc *node.Process) error {
			for _, o := range ops {
				switch {
				case o.internal:
					proc.Internal("replay")
				case o.send:
					if _, err := proc.Send(o.peer); err != nil {
						return err
					}
				default:
					if _, err := proc.RecvFrom(o.peer); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	return programs
}

// sketchHistogram renders the non-empty buckets of a tick histogram as
// "<=edge:count" pairs.
func sketchHistogram(s obs.HistogramSnapshot) string {
	var parts []string
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if i < len(s.Edges) {
			parts = append(parts, fmt.Sprintf("<=%d:%d", s.Edges[i], c))
		} else {
			parts = append(parts, fmt.Sprintf(">%d:%d", s.Edges[len(s.Edges)-1], c))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
