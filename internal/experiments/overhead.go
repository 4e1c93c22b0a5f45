package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/order"
	"syncstamp/internal/trace"
	"syncstamp/internal/vclock"
	"syncstamp/internal/vector"
)

// meanBytes returns the mean varint-encoded piggyback size of the stamps.
func meanBytes(stamps []vector.V) float64 {
	if len(stamps) == 0 {
		return 0
	}
	total := 0
	for _, s := range stamps {
		total += s.EncodedSize()
	}
	return float64(total) / float64(len(stamps))
}

// e13 measures message overhead: components and encoded bytes per message
// for every mechanism, across the paper's motivating topologies. This is
// the scalability claim of Sections 1/3.3 in table form.
func e13() Experiment {
	return Experiment{
		ID:    "E13",
		Title: "Message overhead — components and piggyback bytes per mechanism",
		Run: func(w io.Writer) error {
			rng := rand.New(rand.NewSource(13))
			t := newTable(w)
			t.row("topology", "N", "mechanism", "components", "mean bytes/msg", "exact ↦?")
			cases := []struct {
				name string
				g    *graph.Graph
				dec  func(*graph.Graph) *decomp.Decomposition
			}{
				{"clientserver:2x20", graph.ClientServer(2, 20, false), decomp.Best},
				{"clientserver:2x100", graph.ClientServer(2, 100, false), decomp.Best},
				{"figure4 tree (N=20)", graph.Figure4Tree(), decomp.Best},
				{"complete:16", graph.Complete(16), decomp.Best},
				{"star:50", graph.Star(50, 0), decomp.Best},
			}
			const msgs = 400
			for _, c := range cases {
				tr := trace.Generate(c.g, trace.GenOptions{Messages: msgs}, rng)
				dec := c.dec(c.g)
				online, err := core.StampTrace(tr, dec)
				if err != nil {
					return err
				}
				fm := vclock.FM{}.StampTrace(tr)
				lam := vclock.Lamport{}.StampTrace(tr)
				plaus := vclock.Plausible{R: 4}.StampTrace(tr)
				dd := vclock.NewDirectDep(tr)
				sk := vclock.Simulate(tr)

				t.row(c.name, c.g.N(), "edge-decomp (this paper)", dec.D(),
					fmt.Sprintf("%.1f", meanBytes(online)), "yes")
				t.row("", "", "fidge-mattern", c.g.N(),
					fmt.Sprintf("%.1f", meanBytes(fm)), "yes")
				t.row("", "", "singhal-kshemkalyani", c.g.N(),
					fmt.Sprintf("%.1f (diff)", sk.MeanBytes()), "yes")
				t.row("", "", "lamport", 1,
					fmt.Sprintf("%.1f", meanBytes(lam)), "no")
				t.row("", "", "plausible-R4", 4,
					fmt.Sprintf("%.1f", meanBytes(plaus)), "no")
				t.row("", "", "direct-dependency", dd.PiggybackInts(),
					"~2.0 (ids)", "offline only")
			}
			if err := t.flush(); err != nil {
				return err
			}
			fmt.Fprintln(w, "shape check: edge-decomp bytes stay flat as clients grow while FM grows with N.")
			fmt.Fprintln(w, "note: SK differential piggyback (2 bytes/changed entry) beats full FM only on")
			fmt.Fprintln(w, "repetitive traffic; the uniform workloads above are its worst case:")

			// SK's favorable regime: bursty same-pair traffic, where only the
			// two own components change between consecutive exchanges.
			burst := &trace.Trace{N: 102}
			for c := 2; c < 102; c++ {
				for k := 0; k < 10; k++ {
					burst.MustAppend(trace.Message(c%2, c))
				}
			}
			skBurst := vclock.Simulate(burst)
			fmBurst := vclock.FM{}.StampTrace(burst)
			fmt.Fprintf(w, "  clientserver:2x100, 10-message bursts per client: SK %.1f B/msg vs FM %.1f B/msg\n",
				skBurst.MeanBytes(), meanBytes(fmBurst))
			return nil
		},
	}
}

// e14 validates the distributed implementation: the CSP runtime with real
// goroutines and acknowledgement piggybacking produces exactly the
// sequential algorithm's stamps.
func e14() Experiment {
	return Experiment{
		ID:    "E14",
		Title: "CSP runtime — concurrent goroutine runs match the sequential algorithm",
		Run: func(w io.Writer) error {
			rng := rand.New(rand.NewSource(14))
			t := newTable(w)
			t.row("topology", "runs", "messages", "stamps match", "Theorem 4 holds", "")
			cases := []struct {
				name string
				g    *graph.Graph
			}{
				{"path:4", graph.Path(4)},
				{"complete:5", graph.Complete(5)},
				{"clientserver:2x6", graph.ClientServer(2, 6, false)},
				{"figure2b", graph.Figure2b()},
			}
			for _, c := range cases {
				dec := decomp.Best(c.g)
				const runs = 5
				match, theorem4 := true, true
				totalMsgs := 0
				for r := 0; r < runs; r++ {
					tr := trace.Generate(c.g, trace.GenOptions{Messages: 40, InternalProb: 0.2}, rng)
					res, err := csp.Run(dec, csp.ReplayPrograms(tr), 30*time.Second)
					if err != nil {
						return err
					}
					totalMsgs += res.Trace.NumMessages()
					if check.Replay(res, dec) != nil {
						match = false
					}
					if check.ExactMatch(res.Trace, check.VectorPrecedes(res.Stamps)) != nil {
						theorem4 = false
					}
				}
				t.row(c.name, runs, totalMsgs, match, theorem4, checkMark(match && theorem4))
			}
			return t.flush()
		},
	}
}

// e15 quantifies the Section 6 comparison with plausible clocks: fraction of
// concurrent pairs they falsely order, versus zero for the online algorithm.
func e15() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Plausible clocks — false orderings of concurrent pairs (Section 6)",
		Run: func(w io.Writer) error {
			rng := rand.New(rand.NewSource(15))
			g := graph.Complete(12)
			dec := decomp.Best(g)
			t := newTable(w)
			t.row("mechanism", "components", "concurrent pairs", "falsely ordered", "rate", "")
			const runs, msgs = 10, 120
			type agg struct {
				conc, false_ int
			}
			mechs := []struct {
				name  string
				comps int
				stamp func(tr *trace.Trace) []vector.V
			}{
				{"edge-decomp (this paper)", dec.D(), func(tr *trace.Trace) []vector.V {
					s, err := core.StampTrace(tr, dec)
					if err != nil {
						panic(err.Error())
					}
					return s
				}},
				{"plausible-R2", 2, vclock.Plausible{R: 2}.StampTrace},
				{"plausible-R4", 4, vclock.Plausible{R: 4}.StampTrace},
				{"plausible-R8", 8, vclock.Plausible{R: 8}.StampTrace},
				{"lamport", 1, vclock.Lamport{}.StampTrace},
				{"fidge-mattern", g.N(), vclock.FM{}.StampTrace},
			}
			results := make([]agg, len(mechs))
			for r := 0; r < runs; r++ {
				tr := trace.Generate(g, trace.GenOptions{Messages: msgs}, rng)
				p := order.MessagePoset(tr)
				for mi, m := range mechs {
					stamps := m.stamp(tr)
					for i := range stamps {
						for j := range stamps {
							if i == j || !p.Concurrent(i, j) {
								continue
							}
							results[mi].conc++
							if vector.Less(stamps[i], stamps[j]) {
								results[mi].false_++
							}
						}
					}
				}
			}
			for mi, m := range mechs {
				rate := float64(results[mi].false_) / float64(results[mi].conc)
				wantZero := m.name == "edge-decomp (this paper)" || m.name == "fidge-mattern"
				ok := !wantZero || results[mi].false_ == 0
				t.row(m.name, m.comps, results[mi].conc, results[mi].false_,
					fmt.Sprintf("%.3f", rate), checkMark(ok))
			}
			if err := t.flush(); err != nil {
				return err
			}
			fmt.Fprintln(w, "plausible clocks never miss a true order but do order concurrent pairs;")
			fmt.Fprintln(w, "the paper's stamps and FM characterize ↦ exactly (rate 0).")
			return nil
		},
	}
}

// e16 demonstrates the tightness of β(G) ≤ 2α(G) on disjoint triangles.
func e16() Experiment {
	return Experiment{
		ID:    "E16",
		Title: "β(G) ≤ 2α(G), tight on t disjoint triangles (Section 3.3)",
		Run: func(w io.Writer) error {
			t := newTable(w)
			t.row("t (triangles)", "α(G)", "β(G)", "β = 2α?", "star-only d", "fig7 d", "")
			for _, tri := range []int{1, 2, 3, 4} {
				g := graph.DisjointTriangles(tri)
				alpha, err := decomp.Alpha(g, 0)
				if err != nil {
					return err
				}
				cover, err := decomp.MinVertexCover(g, 0)
				if err != nil {
					return err
				}
				beta := len(cover)
				starOnly := decomp.StarOnly(g)
				fig7 := decomp.Approximate(g)
				ok := alpha == tri && beta == 2*tri
				t.row(tri, alpha, beta, beta == 2*alpha, starOnly.D(), fig7.D(), checkMark(ok))
			}
			return t.flush()
		},
	}
}
