package experiments

import (
	"fmt"
	"io"
	"time"

	"syncstamp/internal/check"
	"syncstamp/internal/core"
	"syncstamp/internal/csp"
	"syncstamp/internal/decomp"
	"syncstamp/internal/graph"
	"syncstamp/internal/trace"
	"syncstamp/internal/vector"
)

// e18 exercises the Section 3.3 scalability remark dynamically: clients
// join a running client-server system one at a time; the vector size stays
// at #servers while FM would need to grow every vector, and all timestamps
// issued across the joins stay mutually comparable and exact.
func e18() Experiment {
	return Experiment{
		ID:    "E18",
		Title: "Dynamic growth — clients join at runtime, d stays constant (Sec. 3.3)",
		Run: func(w io.Writer) error {
			const servers = 2
			dec, err := decomp.FromVertexCover(graph.ClientServer(servers, 1, false), []int{0, 1})
			if err != nil {
				return err
			}
			s := core.NewStamper(dec)
			full := &trace.Trace{N: servers + 1}
			var stamps []vector.V
			stampMsg := func(from, to int) error {
				v, err := s.StampMessage(from, to)
				if err != nil {
					return err
				}
				stamps = append(stamps, v)
				full.Ops = append(full.Ops, trace.Message(from, to))
				return nil
			}

			t := newTable(w)
			t.row("clients", "N", "d (online)", "FM would need", "stamps so far", "exact across joins", "")
			exact := func() bool { return check.ExactMatch(full, check.VectorPrecedes(stamps)) == nil }

			if err := stampMsg(2, 0); err != nil {
				return err
			}
			if err := stampMsg(2, 1); err != nil {
				return err
			}
			ok := exact()
			t.row(1, dec.N(), s.D(), dec.N(), len(stamps), ok, checkMark(ok))

			for join := 0; join < 6; join++ {
				grown, v, err := dec.GrowStarVertex([]int{0, 1})
				if err != nil {
					return err
				}
				dec = grown
				if err := s.Extend(dec); err != nil {
					return err
				}
				full.N = dec.N()
				if err := stampMsg(v, 0); err != nil {
					return err
				}
				if err := stampMsg(0, 2); err != nil {
					return err
				}
				if err := stampMsg(v, 1); err != nil {
					return err
				}
				ok := exact()
				t.row(join+2, dec.N(), s.D(), dec.N(), len(stamps), ok, checkMark(ok))
			}
			if err := t.flush(); err != nil {
				return err
			}
			fmt.Fprintln(w, "every timestamp keeps its original 2 components; FM vectors would have to be")
			fmt.Fprintln(w, "resized (or over-provisioned) at each join.")

			// The same property live: goroutine clients join a running CSP
			// system; clocks rebase lazily and stamps stay exact.
			liveMsgs, liveOK, err := liveJoinDemo()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "live CSP run: 3 clients joined mid-run, %d messages, stamps exact: %v %s\n",
				liveMsgs, liveOK, checkMark(liveOK))
			return nil
		},
	}
}

// liveJoinDemo runs the concurrent counterpart of E18: a 2-server system
// where three clients join while the servers are already receiving.
func liveJoinDemo() (int, bool, error) {
	servers := []int{0, 1}
	base, err := decomp.FromVertexCover(graph.ClientServer(2, 1, false), servers)
	if err != nil {
		return 0, false, err
	}
	sys := csp.NewSystemCap(base, 8)
	const joiners = 3
	serverProg := func(p *csp.Process) error {
		for i := 0; i < 1+joiners; i++ {
			if _, err := p.Recv(); err != nil {
				return err
			}
		}
		return nil
	}
	clientProg := func(p *csp.Process) error {
		if _, err := p.Send(0, p.ID()); err != nil {
			return err
		}
		_, err := p.Send(1, p.ID())
		return err
	}
	if err := sys.Start([]func(*csp.Process) error{serverProg, serverProg, clientProg}); err != nil {
		return 0, false, err
	}
	cur := base
	for j := 0; j < joiners; j++ {
		grown, _, err := cur.GrowStarVertex(servers)
		if err != nil {
			return 0, false, err
		}
		if _, err := sys.Join(grown, clientProg); err != nil {
			return 0, false, err
		}
		cur = grown
	}
	res, err := sys.Wait(30 * time.Second)
	if err != nil {
		return 0, false, err
	}
	ok := check.ExactMatch(res.Trace, check.VectorPrecedes(res.Stamps)) == nil
	for _, st := range res.Stamps {
		ok = ok && len(st) == 2
	}
	return res.Trace.NumMessages(), ok, nil
}
