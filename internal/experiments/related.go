package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"syncstamp/internal/chainclock"
	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/offline"
	"syncstamp/internal/trace"
	"syncstamp/internal/vclock"
	"syncstamp/internal/vector"
)

// e17 compares the timestamp sizes of every mechanism discussed in
// Section 6 on the same computations: the paper's online algorithm
// (topology-bound d), the offline algorithm (computation-bound width),
// centralized chain clocks (arrival-order-bound), Singhal–Kshemkalyani
// differential FM (full N semantics, differential wire cost), and FM.
func e17() Experiment {
	return Experiment{
		ID:    "E17",
		Title: "Section 6 — sizes of all mechanisms on identical computations",
		Run: func(w io.Writer) error {
			rng := rand.New(rand.NewSource(17))
			t := newTable(w)
			t.row("topology", "N", "msgs", "FM", "online d", "offline width", "chain clocks", "SK entries/msg", "all exact?", "")
			cases := []struct {
				name string
				g    *graph.Graph
				msgs int
			}{
				{"star:12", graph.Star(12, 0), 80},
				{"clientserver:2x10", graph.ClientServer(2, 10, false), 80},
				{"figure4 tree", graph.Figure4Tree(), 100},
				{"complete:8", graph.Complete(8), 80},
				{"cycle:8", graph.Cycle(8), 80},
			}
			for _, c := range cases {
				tr := trace.Generate(c.g, trace.GenOptions{Messages: c.msgs}, rng)
				dec := decomp.Best(c.g)
				online, err := core.StampTrace(tr, dec)
				if err != nil {
					return err
				}
				off, err := offline.Stamp(tr)
				if err != nil {
					return err
				}
				cc := chainclock.StampTrace(tr)
				if err := cc.Verify(); err != nil {
					return err
				}
				sk := vclock.Simulate(tr)

				exact := true
				for _, stamps := range [][]vector.V{online, off.Stamps, cc.Stamps, sk.Stamps} {
					exact = exact && check.ExactMatch(tr, check.VectorPrecedes(stamps)) == nil
				}
				t.row(c.name, c.g.N(), c.msgs, c.g.N(), dec.D(), off.Width, cc.Chains,
					fmt.Sprintf("%.2f", sk.MeanEntries()), exact, checkMark(exact))
			}
			if err := t.flush(); err != nil {
				return err
			}
			fmt.Fprintln(w, "online d is topology-bound (constant per system); width and chain count are")
			fmt.Fprintln(w, "computation-bound; chain clocks are centralized and may exceed the width;")
			fmt.Fprintln(w, "SK keeps N-component semantics with differential wire cost.")
			return nil
		},
	}
}
