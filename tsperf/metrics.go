package main

// metricDef declares one reported metric: its name, unit, and which
// direction is better. BENCHMARK.json declares the same sets (plus a bound
// for each end-to-end metric); spec_test.go keeps the two in agreement.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system sees, measured untraced.
// A message is one rendezvous on the node workloads and one stamped
// message, whose two records the tree verifies and spills, on collect-tree.
// Throughput is the only speed gated here: the latency median and the CPU
// cost per message spread wider across runs than any bound allows, so they
// are reported with the per-layer diagnostics instead.
var endToEnd = []metricDef{
	{"msgs_per_s", "1/s", "higher"},
	{"bytes_per_msg", "B", "lower"},
	{"allocs_per_msg", "count", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced pass's metrics, prefixed by the module they
// measure. Every one is reported on every workload. A layer that does not
// run on a workload reports zero there, which is why every metric with a
// time unit is measured on every workload — on some by replaying that
// workload's own records through the layer — and a layer's workload-
// specific time appears as a share instead.
var perLayer = []metricDef{
	{"core.stamp_ns_per_msg", "ns", "lower"},

	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"wire.frames_per_msg", "count", "lower"},
	{"wire.syn_bytes_per_msg", "B", "lower"},
	{"wire.ack_bytes_per_msg", "B", "lower"},

	{"transport.writes_per_msg", "count", "lower"},
	{"transport.frames_per_write", "count", "higher"},
	{"transport.bytes_per_write", "B", "higher"},
	{"transport.reads_per_msg", "count", "lower"},
	{"transport.write_cpu_share", "fraction", "lower"},

	{"rendezvous.send_block_share", "fraction", "lower"},
	{"rendezvous.synack_share", "fraction", "lower"},
	{"rendezvous.recv_block_share", "fraction", "lower"},

	{"sync.retransmits_per_msg", "count", "lower"},
	{"sync.spurious_share", "fraction", "lower"},
	{"sync.dedup_per_msg", "count", "lower"},
	{"sync.suspicions", "count", "lower"},
	{"sync.rto_srtt_ratio", "ratio", "lower"},
	{"fault.drops_per_msg", "count", "lower"},

	{"journal.appends_per_msg", "count", "lower"},
	{"journal.records_per_fsync", "count", "higher"},
	{"journal.bytes_per_record", "B", "lower"},
	{"journal.append_us", "us", "lower"},
	{"journal.fsync_us", "us", "lower"},
	{"journal.restore_us_per_record", "us", "lower"},

	{"collect.report_share", "fraction", "lower"},
	{"collect.reconstruct_share", "fraction", "lower"},
	{"collect.verify_share", "fraction", "lower"},

	{"tree.ingest_p99_ns", "ns", "lower"},
	{"tree.finish_ms", "ms", "lower"},
	{"tree.segments_per_1k", "count", "lower"},
	{"tree.spill_bytes_per_record", "B", "lower"},
	{"tree.max_resident", "count", "lower"},

	{"check.verify_ns_per_record", "ns", "lower"},

	{"runtime.sched_wait_mean_us", "us", "lower"},
	{"runtime.sched_wait_p99_us", "us", "lower"},
	{"runtime.mutex_wait_us_per_msg", "us", "lower"},
	{"runtime.gc_cpu_share", "fraction", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.sys_cpu_share", "fraction", "lower"},

	{"ledger.layer_us_per_msg", "us", "lower"},
	{"ledger.residual_share", "fraction", "lower"},
	{"trace.overhead_share", "fraction", "lower"},

	{"verdict_s", "s", "lower"},
	{"cpu_us_per_msg", "us", "lower"},
	{"msg_p50_us", "us", "lower"},
	{"msg_p99_us", "us", "lower"},
	{"msg_p999_us", "us", "lower"},
	{"samples", "count", "higher"},
}
