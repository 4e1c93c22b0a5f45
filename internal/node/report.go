package node

import (
	"encoding/json"
	"fmt"
	"time"

	"syncstamp/internal/core"
	"syncstamp/internal/obs"
	"syncstamp/internal/wire"
)

// SendReport streams this node's rendezvous logs to the collector node
// after a completed run, over a fresh connection with a RoleReport
// handshake. Each hosted process's log is sent in program order: a send
// becomes a SYN frame (From = owner, To = peer, Vec = stamp), a receive an
// ACK frame (From = peer, To = owner, Vec = stamp), an internal event an
// INTERNAL frame; BYE terminates the report.
func (n *Node) SendReport(collector int, info *RunInfo) error {
	if collector == n.cfg.Node {
		return fmt.Errorf("node %d: cannot report to itself", n.cfg.Node)
	}
	deadline := time.Now().Add(n.cfg.HandshakeTimeout)
	c, err := n.tr.Dial(collector, deadline)
	if err != nil {
		return fmt.Errorf("node %d: report: %w", n.cfg.Node, err)
	}
	defer func() { _ = c.Close() }()
	_ = c.SetDeadline(deadline)
	enc := wire.NewEncoder(c, n.cfg.Dec.D())
	hello := &wire.Frame{Kind: wire.KindHello, Role: wire.RoleReport, Node: n.cfg.Node, Procs: n.local, Digest: n.digest}
	if err := enc.Encode(hello); err != nil {
		return fmt.Errorf("node %d: report handshake: %w", n.cfg.Node, err)
	}
	// The HELLO flushed itself (the collector's handshake read is on a
	// deadline); the log frames batch in the write buffer and go out in
	// large writes, with the final flush below covering the tail.
	enc.SetBatch(true)
	for _, p := range n.local {
		for _, rec := range info.Logs[p] {
			var f *wire.Frame
			switch rec.Kind {
			case core.RecordSend:
				f = &wire.Frame{Kind: wire.KindSyn, From: p, To: rec.Peer, Vec: rec.Stamp}
			case core.RecordRecv:
				f = &wire.Frame{Kind: wire.KindAck, From: rec.Peer, To: p, Vec: rec.Stamp}
			case core.RecordInternal:
				f = &wire.Frame{Kind: wire.KindInternal, Proc: p, Note: fmt.Sprint(rec.Note)}
			default:
				return fmt.Errorf("node %d: process %d log holds unknown record kind %v", n.cfg.Node, p, rec.Kind)
			}
			if err := enc.Encode(f); err != nil {
				return fmt.Errorf("node %d: report process %d: %w", n.cfg.Node, p, err)
			}
		}
	}
	// Ship the node's registry snapshot, as the JSON /metrics serves, ahead
	// of the BYE, so the collector can fold it into the cluster rollup.
	// Registry-less nodes skip it.
	if r := n.cfg.Obs.Registry(); r != nil {
		payload, err := json.Marshal(r.Snapshot())
		if err == nil {
			err = enc.Encode(&wire.Frame{Kind: wire.KindMetrics, Metrics: payload})
		}
		if err != nil {
			return fmt.Errorf("node %d: report metrics: %w", n.cfg.Node, err)
		}
	}
	if err := enc.Encode(&wire.Frame{Kind: wire.KindBye}); err != nil {
		return fmt.Errorf("node %d: report: %w", n.cfg.Node, err)
	}
	if err := enc.Flush(); err != nil {
		return fmt.Errorf("node %d: report: %w", n.cfg.Node, err)
	}
	return nil
}

// Collect receives the peer nodes' log reports, joins them with this
// node's own logs, and reconstructs the global computation with
// core.Reconstruct — the distributed run's oracle-checkable outcome. It
// must be called on exactly one node, after Run, with that node's RunInfo;
// timeout bounds the whole collection.
func (n *Node) Collect(info *RunInfo, timeout time.Duration) (*core.Result, error) {
	logs, err := n.collectStream(info, timeout)
	if err != nil {
		return nil, err
	}
	if err := n.finishRollup(info); err != nil {
		return nil, err
	}
	res, err := core.Reconstruct(n.cfg.Dec, logs)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", n.cfg.Node, err)
	}
	return res, nil
}

// collectStream gathers the run's per-process logs, appending this node's
// own records and then every peer report's as its frames decode, each
// process's records in program order.
func (n *Node) collectStream(info *RunInfo, timeout time.Duration) ([][]core.Record, error) {
	n.start()
	logs := make([][]core.Record, n.cfg.Dec.N())
	seen := make([]bool, n.cfg.Dec.N())
	reported := make([]bool, n.nodes)
	reported[n.cfg.Node] = true
	for _, p := range n.local {
		seen[p] = true
		for _, rec := range info.Logs[p] {
			logs[p] = append(logs[p], rec)
		}
	}
	// Excluded peers never report: their processes count as reported with
	// empty logs. (Degraded-run reconstruction is only oracle-complete when
	// the excluded node committed no rendezvous before it was lost; a node
	// that committed and then crashed must come back from its journal.)
	want := n.nodes
	for _, j := range info.Excluded {
		if j == n.cfg.Node {
			continue
		}
		want--
		reported[j] = true
		for p, host := range n.cfg.Placement {
			if host == j {
				seen[p] = true
			}
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for got := 1; got < want; got++ {
		var rc *reportConn
		select {
		case rc = <-n.reports:
		case <-n.stop:
			if err := n.failure(); err != nil {
				return nil, err
			}
			return nil, ErrStopped
		case <-timer.C:
			return nil, fmt.Errorf("node %d: %d of %d reports within %v, still waiting on node(s) %v",
				n.cfg.Node, got-1, want-1, timeout, missingNodes(reported))
		}
		if rc.node >= 0 && rc.node < len(reported) {
			reported[rc.node] = true
		}
		err := n.readReport(rc, logs, seen)
		_ = rc.c.Close()
		if err != nil {
			return nil, err
		}
	}
	for p, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("node %d: no report covered process %d", n.cfg.Node, p)
		}
	}
	return logs, nil
}

// missingNodes lists the straggler nodes a collect timeout is still waiting
// on, so the error names them instead of only counting.
func missingNodes(reported []bool) []int {
	var m []int
	for j, ok := range reported {
		if !ok {
			m = append(m, j)
		}
	}
	return m
}

// readReport appends one report to logs, frame by frame.
func (n *Node) readReport(rc *reportConn, logs [][]core.Record, seen []bool) error {
	for _, p := range rc.procs {
		if p < 0 || p >= len(seen) {
			return fmt.Errorf("node %d: report from node %d claims process %d, out of range", n.cfg.Node, rc.node, p)
		}
		if seen[p] {
			return fmt.Errorf("node %d: report from node %d claims process %d, already reported", n.cfg.Node, rc.node, p)
		}
		seen[p] = true
	}
	owns := func(p int) bool {
		return p >= 0 && p < len(n.cfg.Placement) && n.cfg.Placement[p] == rc.node
	}
	var f wire.Frame // reused: the vector and Metrics it carries are fresh per frame
	for {
		if err := rc.dec.DecodeInto(&f); err != nil {
			return fmt.Errorf("node %d: report from node %d: %w", n.cfg.Node, rc.node, err)
		}
		switch f.Kind {
		case wire.KindSyn:
			if !owns(f.From) {
				return fmt.Errorf("node %d: report from node %d logs a send by foreign process %d", n.cfg.Node, rc.node, f.From)
			}
			logs[f.From] = append(logs[f.From], core.Record{Kind: core.RecordSend, Peer: f.To, Stamp: f.Vec})
		case wire.KindAck:
			if !owns(f.To) {
				return fmt.Errorf("node %d: report from node %d logs a receive by foreign process %d", n.cfg.Node, rc.node, f.To)
			}
			logs[f.To] = append(logs[f.To], core.Record{Kind: core.RecordRecv, Peer: f.From, Stamp: f.Vec})
		case wire.KindInternal:
			if !owns(f.Proc) {
				return fmt.Errorf("node %d: report from node %d logs an internal event of foreign process %d", n.cfg.Node, rc.node, f.Proc)
			}
			logs[f.Proc] = append(logs[f.Proc], core.Record{Kind: core.RecordInternal, Note: f.Note})
		case wire.KindMetrics:
			var snap obs.Snapshot
			err := json.Unmarshal(f.Metrics, &snap)
			if err == nil {
				err = n.mergeMetrics(snap)
			}
			if err != nil {
				return fmt.Errorf("node %d: metrics from node %d: %w", n.cfg.Node, rc.node, err)
			}
		case wire.KindBye:
			return nil
		default:
			return fmt.Errorf("node %d: unexpected %v frame in report from node %d", n.cfg.Node, f.Kind, rc.node)
		}
	}
}
