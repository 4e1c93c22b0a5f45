package check

import (
	"math"
	"math/rand"
	"testing"

	"syncstamp/internal/core"
	"syncstamp/internal/vector"
	"syncstamp/internal/wire"
)

// TestStampHashSeparatesOneWordChanges: two stamps of one length that
// differ in one component, or only in their group, always hash apart —
// each word of stampHash passes through a bijection, so this holds for
// every stamp, not just with high probability. Extreme components are
// drawn as often as small ones.
func TestStampHashSeparatesOneWordChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	component := func() int {
		switch rng.Intn(4) {
		case 0:
			return []int{0, 1, -1, math.MaxInt, math.MinInt}[rng.Intn(5)]
		case 1:
			return int(rng.Uint64())
		default:
			return rng.Intn(100)
		}
	}
	for i := 0; i < 20000; i++ {
		s := make(vector.V, 1+rng.Intn(24))
		for k := range s {
			s[k] = component()
		}
		g := rng.Intn(len(s))
		h := stampHash(g, s)
		if other := (g + 1 + rng.Intn(64)) % 65; stampHash(other, s) == h {
			t.Fatalf("stamp %v hashes alike in groups %d and %d", s, g, other)
		}
		c := s.Clone()
		k := rng.Intn(len(c))
		for c[k] == s[k] {
			c[k] = component()
		}
		if stampHash(g, c) == h {
			t.Fatalf("group %d: stamps %v and %v differ in component %d and hash alike", g, s, c, k)
		}
	}
}

// halfTopo lets every record be its own process's only record, so any
// stamp with a positive group component is a valid first stamp: the
// channel to peer g lies in group g, and no group has a star root.
type halfTopo struct{ d int }

func (t halfTopo) N() int                          { return math.MaxInt32 }
func (t halfTopo) D() int                          { return t.d }
func (t halfTopo) GroupOf(proc, g int) (int, bool) { return g, g >= 0 && g < t.d }
func (t halfTopo) StarRoot(int) int                { return -1 }

// half is one logged half of a message: its side, group and stamp.
type half struct {
	send  bool
	group int
	stamp vector.V
}

// groupPrint is one group's fingerprint, summed over every shard.
type groupPrint struct {
	sendCount, recvCount uint64
	sendXor, recvXor     uint64
}

// fingerprint streams the halves in the given order through shard
// verifiers, half i on shard shardOf[i], each half its own process, and
// returns the root's verdict and the per-group fingerprints it judged.
func fingerprint(t *testing.T, topo halfTopo, halves []half, order, shardOf []int, leaves int) (*wire.Verdict, map[int]groupPrint) {
	t.Helper()
	vers := make([]*ShardVerifier, leaves)
	for i := range vers {
		vers[i] = NewShardVerifier(topo, i)
	}
	for proc, i := range order {
		h := halves[i]
		rec := core.Record{Kind: core.RecordRecv, Peer: h.group, Stamp: h.stamp}
		if h.send {
			rec.Kind = core.RecordSend
		}
		if err := vers[shardOf[i]].Ingest(proc, rec); err != nil {
			t.Fatalf("half %d %+v: %v", i, h, err)
		}
	}
	sums := make([]*wire.ShardSummary, leaves)
	prints := map[int]groupPrint{}
	for i, v := range vers {
		sums[i] = v.Summary()
		for _, g := range sums[i].Groups {
			p := prints[g.Group]
			p.sendCount += g.SendCount
			p.recvCount += g.RecvCount
			p.sendXor ^= g.SendXor
			p.recvXor ^= g.RecvXor
			prints[g.Group] = p
		}
	}
	return CombineSummaries(topo, leaves, sums), prints
}

// TestFingerprintProperties: the root's per-group fingerprints depend on
// the multiset of logged halves alone — permuting the stream or sharding
// it differently leaves them equal — while dropping a half, moving it to
// the other side of its message, changing one stamp component, changing
// its group, or swapping two halves' groups makes them differ and fails
// the verdict.
func TestFingerprintProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		topo := halfTopo{d: 2 + rng.Intn(6)}
		var halves []half
		for m := 1 + rng.Intn(40); m > 0; m-- {
			s := make(vector.V, topo.d)
			for k := range s {
				s[k] = 1 + rng.Intn(4) // small values, so equal stamps recur
			}
			g := rng.Intn(topo.d)
			halves = append(halves, half{true, g, s}, half{false, g, s})
		}
		// stream shards the halves over leaves and streams them in a
		// random order.
		stream := func(hs []half) (*wire.Verdict, map[int]groupPrint) {
			leaves := 1 + rng.Intn(5)
			shardOf := make([]int, len(hs))
			for i := range shardOf {
				shardOf[i] = rng.Intn(leaves)
			}
			return fingerprint(t, topo, hs, rng.Perm(len(hs)), shardOf, leaves)
		}
		v, want := stream(halves)
		if !v.OK {
			t.Fatalf("trial %d: consistent halves refused: %v", trial, v.Problems)
		}
		if v2, got := stream(halves); !v2.OK || !equalPrints(got, want) {
			t.Fatalf("trial %d: a permuted, resharded stream fingerprints as %v, want %v", trial, got, want)
		}

		// Every mutation touches one recv half, so the send side still
		// carries the run's true multiset.
		i := 2*rng.Intn(len(halves)/2) + 1
		mutate := func(name string, f func(hs []half) []half) {
			v, got := stream(f(append([]half(nil), halves...)))
			if equalPrints(got, want) || v.OK {
				t.Fatalf("trial %d: %s half %d went unnoticed (verdict ok=%v)", trial, name, i, v.OK)
			}
		}
		mutate("dropped", func(hs []half) []half { return append(hs[:i], hs[i+1:]...) })
		mutate("moved", func(hs []half) []half { hs[i].send = true; return hs })
		mutate("changed", func(hs []half) []half {
			s := hs[i].stamp.Clone()
			s[rng.Intn(len(s))] += 1 + rng.Intn(3)
			hs[i].stamp = s
			return hs
		})
		mutate("regrouped", func(hs []half) []half {
			hs[i].group = (hs[i].group + 1 + rng.Intn(topo.d-1)) % topo.d
			return hs
		})
		for j := 1; j < len(halves); j += 2 {
			if halves[j].group != halves[i].group && !vector.Eq(halves[j].stamp, halves[i].stamp) {
				mutate("group-swapped", func(hs []half) []half {
					hs[i].group, hs[j].group = hs[j].group, hs[i].group
					return hs
				})
				break
			}
		}
	}
}

// equalPrints compares two fingerprint maps, an absent group equal to an
// all-zero one.
func equalPrints(a, b map[int]groupPrint) bool {
	for g, p := range a {
		if b[g] != p {
			return false
		}
	}
	for g, p := range b {
		if a[g] != p {
			return false
		}
	}
	return true
}
