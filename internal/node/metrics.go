package node

import "syncstamp/internal/obs"

// Cluster metrics rollup.
//
// A METRICS frame is a registry snapshot on the wire: reporting nodes ship
// one ahead of their report's BYE (report.go), and the collecting root
// merges them — counters and gauges add, histograms merge bucket-wise
// (obs.Registry.Merge is commutative and associative, so arrival order
// cannot change the rollup). The merged view lands in the root's own live
// registry, so its /metrics endpoint serves cluster totals, and in
// RunInfo.Rollup for programmatic use.

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
