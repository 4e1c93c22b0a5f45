package obs

import "fmt"

// Canonical metric names shared by the two runtimes, so /metrics output and
// tooling (tsanalyze trace-report, experiments) agree on the vocabulary.
const (
	// MetricRendezvous counts completed rendezvous halves: each participant
	// (sender on adopt, receiver on merge) contributes one.
	MetricRendezvous = "rendezvous_total"
	// MetricInternalEvents counts Section 5 internal events.
	MetricInternalEvents = "internal_events_total"
	// MetricSynAckNS is the sender-side SYN→ACK wait (LatencyEdges).
	MetricSynAckNS = "syn_ack_latency_ns"
	// MetricSendBlockNS is the sender's wait to hand a rendezvous request to
	// the receiver's mailbox (LatencyEdges).
	MetricSendBlockNS = "send_blocking_ns"
	// MetricRecvBlockNS is the receiver's wait for an incoming rendezvous
	// (LatencyEdges).
	MetricRecvBlockNS = "recv_blocking_ns"
	// MetricCausalTicks is the causal latency of completed sends — the stamp
	// growth sum(v(m)) − sum(v_sender) — bucketed on TickEdges. Unlike the
	// wall-clock histograms it is deterministic across interleavings.
	MetricCausalTicks = "causal_latency_ticks"
	// MetricDialRetries counts failed transport dial attempts that were
	// retried.
	MetricDialRetries = "dial_retries_total"
	// MetricDroppedFrames counts frames a node's read loops discarded (late
	// ACKs after a rendezvous timeout, unexpected kinds on a data stream).
	MetricDroppedFrames = "dropped_frames_total"
	// MetricRetransmits counts SYN frames re-sent by a parked sender whose
	// ACK had not arrived within the current retransmission timeout.
	MetricRetransmits = "retransmits_total"
	// MetricReconnects counts data connections re-established after a peer
	// loss (session resume via a higher HELLO epoch).
	MetricReconnects = "reconnects_total"
	// MetricDedupFrames counts duplicate SYN frames suppressed by the
	// receiver's idempotent dedup (re-ACKed from the merge cache or dropped).
	MetricDedupFrames = "dedup_frames_total"
	// MetricBackoffNS is the retransmission timeout chosen after each resend
	// (LatencyEdges): the peer's RTO, doubled per resend and jittered. Not
	// deterministic: the RTO follows measured round-trip times.
	MetricBackoffNS = "retransmit_backoff_ns"
	// MetricSpuriousRetransmits counts retransmissions proven unnecessary:
	// the ACK arrived so soon after the retransmission that it must answer
	// an earlier copy (the synchronizer's Eifel-style detection). High
	// values mean the RTT estimator is timing out too eagerly.
	MetricSpuriousRetransmits = "spurious_retransmits_total"
	// MetricSuspicions counts the times a peer's link turned suspect (a run
	// of unanswered retransmission intervals). Each suspicion arms the
	// degradation policy; a recovery (evidence before the window expires)
	// disarms it.
	MetricSuspicions = "peer_suspicions_total"
	// MetricPeerRTTNS is the per-peer round-trip-time histogram of accepted
	// RTT samples (LatencyEdges), registered per peer node via PeerMetric.
	// Its quantiles are the RunInfo p50/p99 source.
	MetricPeerRTTNS = "peer_rtt_ns"
	// MetricPeerHealth gauges a peer's health state, registered per peer
	// node via PeerMetric: 0 healthy, 1 degraded, 2 suspect, 3 excluded.
	MetricPeerHealth = "peer_health_state"
	// MetricJournalAppends gauges the crash-recovery journal's committed
	// record count at end of run (with a journal only).
	MetricJournalAppends = "journal_appends_total"
	// MetricJournalSyncs gauges the fsync batches that made those records
	// durable. Syncs well below appends is group commit at work; equal
	// counts mean every batch held a single record (an uncontended journal).
	MetricJournalSyncs = "journal_syncs_total"
	// MetricLoadOffered and MetricLoadAchieved count the messages a load
	// driver scheduled versus the messages it completed; their per-second
	// rates over the run window are the open-loop offered-vs-achieved
	// comparison.
	MetricLoadOffered  = "load_offered_msgs_total"
	MetricLoadAchieved = "load_achieved_msgs_total"
	// MetricLoadLatencyNS is a load driver's per-request latency histogram
	// (LatencyEdges), the SLO percentile source.
	MetricLoadLatencyNS = "load_request_latency_ns"
)

// ProcMetric derives the per-process variant of a metric name.
func ProcMetric(name string, proc int) string {
	return fmt.Sprintf("%s_p%d", name, proc)
}

// PeerMetric derives the per-peer-node variant of a metric name.
func PeerMetric(name string, node int) string {
	return fmt.Sprintf("%s_n%d", name, node)
}

// FrameMetrics derives the per-frame-kind wire traffic counter names.
func FrameMetrics(kind string) (frames, bytes string) {
	return "wire_frames_" + kind, "wire_bytes_" + kind
}

// Instruments is a runtime's set of resolved instruments. Resolution
// (NewInstruments) happens once at startup; afterwards the hot paths touch
// only the atomic instruments. Resolving against a nil registry yields nil
// instruments throughout, so a disabled runtime pays nothing.
type Instruments struct {
	Rendezvous     *Counter
	InternalEvents *Counter
	DialRetries    *Counter
	DroppedFrames  *Counter
	Retransmits    *Counter
	Reconnects     *Counter
	DedupFrames    *Counter
	Spurious       *Counter
	Suspicions     *Counter
	SynAckNS       *Histogram
	SendBlockNS    *Histogram
	RecvBlockNS    *Histogram
	CausalTicks    *Histogram
	BackoffNS      *Histogram

	// procRendezvous is indexed by process id; nil entries no-op.
	procRendezvous []*Counter
}

// NewInstruments resolves the canonical instruments against r, registering
// per-process rendezvous counters for n processes.
func NewInstruments(r *Registry, n int) Instruments {
	ins := Instruments{
		Rendezvous:     r.Counter(MetricRendezvous),
		InternalEvents: r.Counter(MetricInternalEvents),
		DialRetries:    r.Counter(MetricDialRetries),
		DroppedFrames:  r.Counter(MetricDroppedFrames),
		Retransmits:    r.Counter(MetricRetransmits),
		Reconnects:     r.Counter(MetricReconnects),
		DedupFrames:    r.Counter(MetricDedupFrames),
		Spurious:       r.Counter(MetricSpuriousRetransmits),
		Suspicions:     r.Counter(MetricSuspicions),
		SynAckNS:       r.Histogram(MetricSynAckNS, LatencyEdges),
		SendBlockNS:    r.Histogram(MetricSendBlockNS, LatencyEdges),
		RecvBlockNS:    r.Histogram(MetricRecvBlockNS, LatencyEdges),
		CausalTicks:    r.Histogram(MetricCausalTicks, TickEdges),
		BackoffNS:      r.Histogram(MetricBackoffNS, LatencyEdges),
	}
	if r != nil {
		ins.procRendezvous = make([]*Counter, n)
		for i := range ins.procRendezvous {
			ins.procRendezvous[i] = r.Counter(ProcMetric(MetricRendezvous, i))
		}
	}
	return ins
}

// Proc returns process p's rendezvous counter (nil, hence no-op, when
// disabled or out of range).
func (i *Instruments) Proc(p int) *Counter {
	if p < 0 || p >= len(i.procRendezvous) {
		return nil
	}
	return i.procRendezvous[p]
}

// StampSum is the component sum of a stamp — the causal-latency coordinate.
func StampSum(v []int) int64 {
	var s int64
	for _, x := range v {
		s += int64(x)
	}
	return s
}
