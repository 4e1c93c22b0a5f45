package node

import (
	"sort"

	"syncstamp/internal/obs"
	"syncstamp/internal/wire"
)

// Cluster metrics rollup.
//
// A METRICS frame is a registry snapshot on the wire: reporting nodes ship
// one ahead of their report's BYE (report.go), and the collecting root
// merges them — counters and gauges add, histograms merge bucket-wise
// (obs.Registry.Merge is commutative and associative, so arrival order
// cannot change the rollup). The merged view lands in the root's own live
// registry, so its /metrics endpoint serves cluster totals, and in
// RunInfo.Rollup for programmatic use.

// MetricsFromSnapshot renders a registry snapshot as the METRICS frame
// payload, instrument names sorted — the codec enforces sortedness, which
// is what makes a snapshot's wire encoding unique.
func MetricsFromSnapshot(node int, s obs.Snapshot) *wire.Metrics {
	m := &wire.Metrics{Node: node}
	for _, name := range sortedKeys(s.Counters) {
		m.Counters = append(m.Counters, wire.MetricValue{Name: name, Value: s.Counters[name]})
	}
	for _, name := range sortedKeys(s.Gauges) {
		m.Gauges = append(m.Gauges, wire.MetricValue{Name: name, Value: s.Gauges[name]})
	}
	hists := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hists = append(hists, name)
	}
	sort.Strings(hists)
	for _, name := range hists {
		h := s.Histograms[name]
		m.Histograms = append(m.Histograms, wire.MetricHistogram{
			Name: name, Edges: h.Edges, Counts: h.Counts, Count: h.Count, Sum: h.Sum,
		})
	}
	return m
}

// SnapshotFromMetrics inverts MetricsFromSnapshot.
func SnapshotFromMetrics(m *wire.Metrics) obs.Snapshot {
	s := obs.Snapshot{
		Counters:   make(map[string]int64, len(m.Counters)),
		Gauges:     make(map[string]int64, len(m.Gauges)),
		Histograms: make(map[string]obs.HistogramSnapshot, len(m.Histograms)),
	}
	for _, v := range m.Counters {
		s.Counters[v.Name] = v.Value
	}
	for _, v := range m.Gauges {
		s.Gauges[v.Name] = v.Value
	}
	for _, h := range m.Histograms {
		s.Histograms[h.Name] = obs.HistogramSnapshot{
			Edges: h.Edges, Counts: h.Counts, Count: h.Count, Sum: h.Sum,
		}
	}
	return s
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mergeMetrics folds one reported snapshot into the collector's rollup
// registry (created lazily on the first METRICS frame).
func (n *Node) mergeMetrics(s obs.Snapshot) error {
	n.mu.Lock()
	if n.rollup == nil {
		n.rollup = obs.NewRegistry()
	}
	r := n.rollup
	n.mu.Unlock()
	return r.Merge(s)
}

// finishRollup completes a collect's metrics rollup: the accumulated peer
// snapshots are merged into this node's own registry — /metrics now
// serves the cluster view — and the merged totals are stamped into
// info.Rollup. With nothing reported and no local registry, info.Rollup
// stays nil.
func (n *Node) finishRollup(info *RunInfo) error {
	n.mu.Lock()
	roll := n.rollup
	n.rollup = nil
	n.mu.Unlock()
	r := n.cfg.Obs.Registry()
	if roll != nil {
		if r == nil {
			// A registry-less collector still reports the cluster totals.
			snap := roll.Snapshot()
			info.Rollup = &snap
			return nil
		}
		if err := r.Merge(roll.Snapshot()); err != nil {
			return err
		}
	}
	if r != nil {
		snap := r.Snapshot()
		info.Rollup = &snap
	}
	return nil
}
