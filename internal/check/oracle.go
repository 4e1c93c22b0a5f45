package check

import (
	"fmt"

	"syncstamp/internal/chainclock"
	"syncstamp/internal/cluster"
	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/offline"
	"syncstamp/internal/order"
	"syncstamp/internal/poset"
	"syncstamp/internal/trace"
	"syncstamp/internal/vclock"
	"syncstamp/internal/vector"
)

// PrecedesFunc answers m1 ↦ m2 for message indices of one trace.
type PrecedesFunc func(m1, m2 int) bool

// Oracle is one timestamping mechanism under differential test.
//
// The oracle hierarchy has three levels: the ground truth is the message
// poset derived combinatorially from the trace (order.MessagePoset — no
// clocks involved); Exact oracles must reproduce it verbatim (Theorem 4
// and its per-mechanism analogues); the remaining "plausible" oracles
// (Lamport, Torres-Rojas/Ahamad) are only required never to contradict it —
// they must report every true ordering with the right direction, and any
// concurrency they claim must be real, but they may order truly concurrent
// pairs.
type Oracle struct {
	// Name identifies the mechanism in Compare calls and failure reports.
	Name string
	// Exact oracles must match the poset exactly; non-exact (plausible)
	// oracles must merely never contradict it.
	Exact bool
	// Stamp builds the mechanism's precedence answerer for the input.
	Stamp func(in *Input) (PrecedesFunc, error)
}

// VectorPrecedes adapts a stamp slice to a PrecedesFunc via the vector
// order of Equation (2).
func VectorPrecedes(stamps []vector.V) PrecedesFunc {
	return func(m1, m2 int) bool { return vector.Less(stamps[m1], stamps[m2]) }
}

// Oracles returns the full registry: every clock implementation in the
// repo, each adapted to a common precedence interface.
func Oracles() []Oracle {
	return []Oracle{
		{Name: "online", Exact: true, Stamp: func(in *Input) (PrecedesFunc, error) {
			stamps, err := core.StampTrace(in.Trace, in.Dec)
			if err != nil {
				return nil, err
			}
			return VectorPrecedes(stamps), nil
		}},
		{Name: "offline", Exact: true, Stamp: func(in *Input) (PrecedesFunc, error) {
			res, err := offline.Stamp(in.Trace)
			if err != nil {
				return nil, err
			}
			return VectorPrecedes(res.Stamps), nil
		}},
		{Name: "fm", Exact: true, Stamp: func(in *Input) (PrecedesFunc, error) {
			return VectorPrecedes(vclock.FM{}.StampTrace(in.Trace)), nil
		}},
		{Name: "chainclock", Exact: true, Stamp: func(in *Input) (PrecedesFunc, error) {
			res := chainclock.StampTrace(in.Trace)
			if err := res.Verify(); err != nil {
				return nil, err
			}
			return VectorPrecedes(res.Stamps), nil
		}},
		{Name: "cluster", Exact: true, Stamp: func(in *Input) (PrecedesFunc, error) {
			rng := in.Rand()
			part, err := cluster.Contiguous(in.Trace.N, 1+rng.Intn(in.Trace.N))
			if err != nil {
				return nil, err
			}
			res, err := cluster.Stamp(in.Trace, part)
			if err != nil {
				return nil, err
			}
			return func(m1, m2 int) bool {
				ok, _ := res.Precedes(m1, m2)
				return ok
			}, nil
		}},
		{Name: "directdep", Exact: true, Stamp: func(in *Input) (PrecedesFunc, error) {
			dd := vclock.NewDirectDep(in.Trace)
			return func(m1, m2 int) bool {
				ok, _ := dd.Precedes(m1, m2)
				return ok
			}, nil
		}},
		{Name: "lamport", Exact: false, Stamp: func(in *Input) (PrecedesFunc, error) {
			return VectorPrecedes(vclock.Lamport{}.StampTrace(in.Trace)), nil
		}},
		{Name: "plausible", Exact: false, Stamp: func(in *Input) (PrecedesFunc, error) {
			rng := in.Rand()
			p := vclock.Plausible{R: 1 + rng.Intn(in.Trace.N)}
			return VectorPrecedes(p.StampTrace(in.Trace)), nil
		}},
	}
}

// Compare differentially tests the named oracles (all of them when names is
// empty) against the ground-truth poset of the input's trace.
func Compare(in *Input, names ...string) error {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	seen := 0
	p := order.MessagePoset(in.Trace)
	for _, o := range Oracles() {
		if len(names) > 0 && !want[o.Name] {
			continue
		}
		seen++
		pre, err := o.Stamp(in)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", o.Name, err)
		}
		var cmpErr error
		if o.Exact {
			cmpErr = exactMatch(in.Trace, p, pre)
		} else {
			cmpErr = soundMatch(in.Trace, p, pre)
		}
		if cmpErr != nil {
			return fmt.Errorf("oracle %s: %w", o.Name, cmpErr)
		}
	}
	if len(names) > 0 && seen != len(want) {
		return fmt.Errorf("check: unknown oracle in %v", names)
	}
	return nil
}

// ExactMatch checks that precedes characterizes the trace's ↦ exactly:
// precedes(i, j) ⟺ i ↦ j for every ordered message pair, which also makes
// claimed concurrency coincide with real concurrency.
func ExactMatch(tr *trace.Trace, precedes PrecedesFunc) error {
	return exactMatch(tr, order.MessagePoset(tr), precedes)
}

// Replay checks a run against the sequential replay oracle: the run must
// carry exactly one stamp per message of its trace, each equal to the stamp
// core.StampTrace assigns that message under dec. Internal-event stamps need
// no comparison of their own: a run and the replay both derive them from
// the message stamps through core.EventStamps.
func Replay(res *core.Result, dec *decomp.Decomposition) error {
	seq, err := core.StampTrace(res.Trace, dec)
	if err != nil {
		return err
	}
	if len(res.Stamps) != len(seq) {
		return fmt.Errorf("run recorded %d stamps, sequential replay %d", len(res.Stamps), len(seq))
	}
	for m := range seq {
		if !vector.Eq(res.Stamps[m], seq[m]) {
			return fmt.Errorf("message %d: run stamp %v, sequential stamp %v", m, res.Stamps[m], seq[m])
		}
	}
	return nil
}

// Verify is the correctness contract of a run: Replay, then Theorem 4 —
// the run's stamps characterize its message order exactly (ExactMatch).
func Verify(res *core.Result, dec *decomp.Decomposition) error {
	if err := Replay(res, dec); err != nil {
		return err
	}
	return ExactMatch(res.Trace, VectorPrecedes(res.Stamps))
}

// SoundMatch checks that precedes never contradicts ↦: every true ordering
// is reported in the right direction (so no false concurrency on ordered
// pairs), and no reported ordering inverts a true one. Ordering truly
// concurrent pairs is allowed — the defining slack of plausible clocks.
func SoundMatch(tr *trace.Trace, precedes PrecedesFunc) error {
	return soundMatch(tr, order.MessagePoset(tr), precedes)
}

func exactMatch(tr *trace.Trace, p *poset.Poset, precedes PrecedesFunc) error {
	msgs := tr.Messages()
	for i := range msgs {
		for j := range msgs {
			if i == j {
				continue
			}
			got, want := precedes(i, j), p.Less(i, j)
			if got == want {
				continue
			}
			if want {
				return fmt.Errorf("m%d %v ↦ m%d %v but the clock misses the ordering", i, msgs[i].Edge(), j, msgs[j].Edge())
			}
			rel := "concurrent with"
			if p.Less(j, i) {
				rel = "AFTER"
			}
			return fmt.Errorf("clock claims m%d %v ↦ m%d %v but m%d is %s m%d", i, msgs[i].Edge(), j, msgs[j].Edge(), i, rel, j)
		}
	}
	return nil
}

func soundMatch(tr *trace.Trace, p *poset.Poset, precedes PrecedesFunc) error {
	msgs := tr.Messages()
	for i := range msgs {
		for j := range msgs {
			if i == j {
				continue
			}
			got := precedes(i, j)
			switch {
			case p.Less(i, j) && !got:
				return fmt.Errorf("m%d %v ↦ m%d %v but the clock misses the ordering (false concurrency)", i, msgs[i].Edge(), j, msgs[j].Edge())
			case got && p.Less(j, i):
				return fmt.Errorf("clock claims m%d %v ↦ m%d %v but the true order is the reverse", i, msgs[i].Edge(), j, msgs[j].Edge())
			}
		}
	}
	return nil
}
