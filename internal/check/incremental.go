package check

import (
	"fmt"
	"sort"

	"syncstamp/internal/core"
	"syncstamp/internal/decomp"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// This file is the streaming entry into the oracle hierarchy: the
// incremental per-shard verification a collector tree runs as logs stream
// in, in O(shard) memory, instead of reconstructing the whole trace and
// replaying it sequentially at the end.
//
// The sequential-replay oracle (Verify: core.StampTrace, then ExactMatch)
// characterizes a correct Figure 5 run by three facts, each of which has a
// local, streaming form:
//
//  1. Chain monotonicity. A process's consecutive message stamps are its
//     clock values after each merge, so each stamp componentwise dominates
//     the previous one, and the component of the message's own edge group
//     strictly advances.
//  2. Star-root density. The root of a star group participates in every
//     message of the group, so its group component counts the group's
//     messages exactly: it advances by precisely one per message it logs on
//     the group, and its final value equals the group's message count.
//  3. Rendezvous agreement. Both halves of a message log the identical
//     stamp, so across the whole run the multiset of stamps logged by
//     senders on a group equals the multiset logged by receivers. Shards
//     see disjoint process sets, hence disjoint halves; the root compares
//     the summed multisets via counts and an order-independent XOR of
//     per-stamp hashes in O(groups) memory.
//
// (1) and (2) are checked by the shard that owns the process as its log
// streams in; (3) is judged at the root from the shard summaries.
// check_test.go's incremental properties tie the verdict to the sequential
// oracle: on generated traces the verdict is clean exactly when the replay
// is, and corrupting any stamp flips it.

// Topology is the slice of a decomposition the incremental verifier needs.
// decomp.Decomposition satisfies it via DecompTopology; workload drivers
// with an analytic topology (client-server at million scale) implement it
// directly so verification never materializes an edge map.
type Topology interface {
	// N is the process count.
	N() int
	// D is the number of edge groups (the vector dimension).
	D() int
	// GroupOf maps a channel to its edge group.
	GroupOf(a, b int) (int, bool)
	// StarRoot is the root process of star group g, or -1 for a triangle.
	StarRoot(g int) int
}

// DecompTopology adapts a decomposition to the Topology interface,
// precomputing the star roots.
type DecompTopology struct {
	Dec   *decomp.Decomposition
	roots []int
}

// NewDecompTopology wraps dec for incremental verification.
func NewDecompTopology(dec *decomp.Decomposition) *DecompTopology {
	roots := make([]int, dec.D())
	for i, g := range dec.Groups() {
		if g.Kind == decomp.KindStar {
			roots[i] = g.Root
		} else {
			roots[i] = -1
		}
	}
	return &DecompTopology{Dec: dec, roots: roots}
}

// N is the process count.
func (t *DecompTopology) N() int { return t.Dec.N() }

// D is the group count.
func (t *DecompTopology) D() int { return t.Dec.D() }

// GroupOf maps a channel to its edge group.
func (t *DecompTopology) GroupOf(a, b int) (int, bool) { return t.Dec.GroupOf(a, b) }

// StarRoot is star group g's root, or -1 for a triangle.
func (t *DecompTopology) StarRoot(g int) int { return t.roots[g] }

// groupAcc accumulates one group's fingerprint inside a shard.
type groupAcc struct {
	sendCount, recvCount uint64
	sendXor, recvXor     uint64
	rootSeq              int64 // -1 until the group's star root logs here
}

// ShardVerifier checks one shard's slice of a run as records stream in.
// Records must arrive in per-process program order; processes may
// interleave arbitrarily. The verifier's memory is O(|shard| · d + groups
// touched) and never grows with the record count. It is not safe for
// concurrent use; a collector tree runs one per leaf goroutine.
type ShardVerifier struct {
	topo Topology
	leaf int
	prev map[int]vector.V
	acc  map[int]*groupAcc

	sends, recvs, internals uint64
	err                     error
}

// NewShardVerifier returns a verifier for leaf's shard.
func NewShardVerifier(topo Topology, leaf int) *ShardVerifier {
	return &ShardVerifier{
		topo: topo,
		leaf: leaf,
		prev: make(map[int]vector.V),
		acc:  make(map[int]*groupAcc),
	}
}

// Err returns the first verification failure, or nil.
func (v *ShardVerifier) Err() error { return v.err }

// fail records the first failure; later records still count but no longer
// judge, so a broken shard reports one crisp error instead of a cascade.
func (v *ShardVerifier) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if v.err == nil {
		v.err = err
	}
	return err
}

// Ingest feeds process proc's next record, in program order, and checks the
// streaming invariants. The first violation is returned and remembered; the
// record is still counted so summaries stay honest about volume.
func (v *ShardVerifier) Ingest(proc int, rec core.Record) error {
	switch rec.Kind {
	case core.RecordInternal:
		v.internals++
		return v.err
	case core.RecordSend:
		v.sends++
	case core.RecordRecv:
		v.recvs++
	default:
		return v.fail("shard %d: process %d logs unknown record kind %v", v.leaf, proc, rec.Kind)
	}
	g, ok := v.topo.GroupOf(proc, rec.Peer)
	if !ok {
		return v.fail("shard %d: no edge group covers channel (%d,%d)", v.leaf, proc, rec.Peer)
	}
	s := rec.Stamp
	if len(s) != v.topo.D() {
		return v.fail("shard %d: process %d stamp has %d components, want %d", v.leaf, proc, len(s), v.topo.D())
	}
	prev := v.prev[proc]
	prevG := 0
	if prev != nil {
		if !vector.Leq(prev, s) {
			return v.fail("shard %d: process %d stamp %v does not dominate its previous stamp %v", v.leaf, proc, s, prev)
		}
		prevG = prev[g]
	}
	root := v.topo.StarRoot(g)
	if s[g] < prevG+1 {
		return v.fail("shard %d: process %d stamp %v does not advance group %d past %d", v.leaf, proc, s, g, prevG)
	}
	if root == proc && s[g] != prevG+1 {
		return v.fail("shard %d: star root %d jumps group %d from %d to %d (a root sequences its group densely)", v.leaf, proc, g, prevG, s[g])
	}
	a := v.acc[g]
	if a == nil {
		a = &groupAcc{rootSeq: -1}
		v.acc[g] = a
	}
	h := stampHash(g, s)
	if rec.Kind == core.RecordSend {
		a.sendCount++
		a.sendXor ^= h
	} else {
		a.recvCount++
		a.recvXor ^= h
	}
	if root == proc {
		a.rootSeq = int64(s[g])
	}
	if prev == nil {
		prev = vector.New(v.topo.D())
		v.prev[proc] = prev
	}
	copy(prev, s)
	return v.err
}

// Summary rolls the shard up into the summary the leaf reports to its root.
func (v *ShardVerifier) Summary() *wire.ShardSummary {
	s := &wire.ShardSummary{
		Leaf:      v.leaf,
		Procs:     uint64(len(v.prev)),
		Sends:     v.sends,
		Recvs:     v.recvs,
		Internals: v.internals,
	}
	if v.err != nil {
		s.Err = v.err.Error()
	}
	groups := make([]int, 0, len(v.acc))
	for g := range v.acc {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		a := v.acc[g]
		s.Groups = append(s.Groups, wire.GroupSummary{
			Group:     g,
			SendCount: a.sendCount,
			SendXor:   a.sendXor,
			RecvCount: a.recvCount,
			RecvXor:   a.recvXor,
			RootSeq:   a.rootSeq,
		})
	}
	return s
}

// stampHash is an FNV-64a over the group index and the stamp components —
// the per-message fingerprint whose XOR forms a shard's multiset signature.
func stampHash(group int, v vector.V) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(uint64(group))
	mix(uint64(len(v)))
	for _, c := range v {
		mix(uint64(c))
	}
	return h
}

// CombineSummaries is the root of the collector tree: given the summaries
// of a want-leaf tree (nil entries for shards that never reported), it
// judges the run. A clean verdict requires every shard present and
// error-free, every group's send multiset equal to its recv multiset, and
// every star root's final sequence number equal to its group's message
// count.
func CombineSummaries(topo Topology, want int, sums []*wire.ShardSummary) *wire.Verdict {
	v := &wire.Verdict{}
	problem := func(format string, args ...any) {
		v.Problems = append(v.Problems, fmt.Sprintf(format, args...))
	}
	byLeaf := make([]*wire.ShardSummary, want)
	for _, s := range sums {
		if s == nil {
			continue
		}
		if s.Leaf < 0 || s.Leaf >= want {
			problem("summary names shard %d, tree has %d", s.Leaf, want)
			continue
		}
		if byLeaf[s.Leaf] != nil {
			problem("shard %d reported twice", s.Leaf)
			continue
		}
		byLeaf[s.Leaf] = s
		v.Shards++
	}
	type groupTotal struct {
		sendCount, recvCount uint64
		sendXor, recvXor     uint64
		rootSeq              int64
		rootShard            int
	}
	totals := make(map[int]*groupTotal)
	for leaf := 0; leaf < want; leaf++ {
		s := byLeaf[leaf]
		if s == nil {
			problem("shard %d missing: no summary reached the root", leaf)
			continue
		}
		if s.Err != "" {
			problem("shard %d failed: %s", leaf, s.Err)
		}
		v.Records += s.Sends + s.Recvs + s.Internals
		for _, g := range s.Groups {
			tot := totals[g.Group]
			if tot == nil {
				tot = &groupTotal{rootSeq: -1, rootShard: -1}
				totals[g.Group] = tot
			}
			tot.sendCount += g.SendCount
			tot.recvCount += g.RecvCount
			tot.sendXor ^= g.SendXor
			tot.recvXor ^= g.RecvXor
			if g.RootSeq >= 0 {
				if tot.rootSeq >= 0 {
					problem("group %d: star root claimed by shards %d and %d", g.Group, tot.rootShard, leaf)
				}
				tot.rootSeq = g.RootSeq
				tot.rootShard = leaf
			}
		}
	}
	groups := make([]int, 0, len(totals))
	for g := range totals {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		tot := totals[g]
		v.Messages += tot.sendCount
		if tot.sendCount != tot.recvCount {
			problem("group %d: %d send halves vs %d recv halves", g, tot.sendCount, tot.recvCount)
		} else if tot.sendXor != tot.recvXor {
			problem("group %d: send and recv stamp multisets differ", g)
		}
		if root := topo.StarRoot(g); root >= 0 {
			switch {
			case tot.rootSeq >= 0 && tot.rootSeq != int64(tot.sendCount):
				problem("group %d: star root %d ends at sequence %d, group carried %d messages", g, root, tot.rootSeq, tot.sendCount)
			case tot.rootSeq < 0 && tot.sendCount > 0 && v.Shards == want:
				// The root participates in every message of its star, so when
				// every shard reported, a group with traffic but no root claim
				// means the root's log lost records. (With a shard missing,
				// the missing shard is already the reported problem.)
				problem("group %d: carried %d messages but star root %d logged none", g, tot.sendCount, root)
			}
		}
	}
	v.OK = len(v.Problems) == 0
	return v
}
