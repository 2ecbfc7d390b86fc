package main

// metricDef is one line of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the worsening that counts as a regression
}

// endToEndMetrics are what a user of the cluster sees; every workload
// reports every one of them from an untraced run. The timings are at
// reference speed (see refCost); their raw counterparts are per-layer
// metrics, because a bound on them would be a bound on the host. The 95th
// percentile is per-layer too: a burst of hypervisor steal moves it by half
// even at reference speed (README.md, "Why reference speed").
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_ref_us", "us", "lower", 0.15},
	{"cpu_ref_ms_per_commit", "ms", "lower", 0.15},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayerMetrics are the numbers of single layers, named module.metric
// after the package that owns the work. A traced run of a workload reports
// every one; one that does not apply to the workload (a recovery metric on
// a workload with no crash, a disk metric on the mem store) reads 0.
// README.md says which end-to-end metric each should move, and where.
var perLayerMetrics = append(append([]metricDef(nil), rawMetrics...), layerMetrics...)

// rawMetrics are a run's own end-to-end numbers as the host ran them. A
// traced run reports them with -export on; an untraced run prints its own
// under the bounded ones.
var rawMetrics = []metricDef{
	{name: "throughput_tps", unit: "1/s", better: "higher"},
	{name: "commit_p50_us", unit: "us", better: "lower"},
	{name: "commit_p95_us", unit: "us", better: "lower"},
	{name: "commit_p95_ref_us", unit: "us", better: "lower"},
	{name: "cpu_ms_per_commit", unit: "ms", better: "lower"},
	{name: "setup_wall_s", unit: "s", better: "lower"},
	{name: "rss_end_mb", unit: "MB", better: "lower"},
	{name: "host.steal_pct", unit: "%", better: "lower"},
}

var layerMetrics = []metricDef{
	// From the traced run: counter movement and spans over its interval.
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "srnode.http_overhead_us", unit: "us", better: "lower"},
	{name: "txn.commit_mean_us", unit: "us", better: "lower"},
	{name: "txn.self_mean_us", unit: "us", better: "lower"},
	{name: "txn.attempts_per_commit", unit: "count", better: "lower"},
	{name: "tcpnet.msgs_per_commit", unit: "count", better: "lower"},
	{name: "tcpnet.rpc_client_mean_us.write", unit: "us", better: "lower"},
	{name: "tcpnet.rpc_client_mean_us.prepare", unit: "us", better: "lower"},
	{name: "tcpnet.rpc_client_mean_us.commit", unit: "us", better: "lower"},
	{name: "dm.rpc_server_mean_us.write", unit: "us", better: "lower"},
	{name: "dm.rpc_server_mean_us.prepare", unit: "us", better: "lower"},
	{name: "dm.rpc_server_mean_us.commit", unit: "us", better: "lower"},
	{name: "tcpnet.transit_mean_us.write", unit: "us", better: "lower"},
	{name: "tcpnet.transit_mean_us.prepare", unit: "us", better: "lower"},
	{name: "tcpnet.transit_mean_us.commit", unit: "us", better: "lower"},
	{name: "wal.bytes_per_commit", unit: "B", better: "lower"},
	{name: "wal.records_per_commit", unit: "count", better: "lower"},
	{name: "disk.pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "disk.evictions_per_kcommit", unit: "count", better: "lower"},
	{name: "disk.flushes_per_kcommit", unit: "count", better: "lower"},
	{name: "lockmgr.timeouts", unit: "count", better: "lower"},
	{name: "loadgen.cpu_ms_per_commit", unit: "ms", better: "lower"},
	{name: "device.fsync_us", unit: "us", better: "lower"},
	// From the crash and recovery of site 3; 0 on the steady workloads.
	{name: "recovery.recover_s", unit: "s", better: "lower"},
	{name: "disk.restart_redo_ms", unit: "ms", better: "lower"},
	{name: "disk.redo_applied", unit: "count", better: "lower"},
	{name: "recovery.copies_per_s", unit: "1/s", better: "higher"},
	{name: "recovery.data_copies", unit: "count", better: "lower"},
	{name: "recovery.version_skips", unit: "count", better: "higher"},
	{name: "session.exclusion_ms", unit: "ms", better: "lower"},
	{name: "session.degraded_tps", unit: "1/s", better: "higher"},
	{name: "recovery.under_load_s", unit: "s", better: "lower"},
	{name: "recovery.user_tps_during", unit: "1/s", better: "higher"},
	// From direct timing of public functions in the harness's own process.
	{name: "proto.encode_ns.write", unit: "ns", better: "lower"},
	{name: "proto.encode_ns.prepare", unit: "ns", better: "lower"},
	{name: "proto.decode_ns.write", unit: "ns", better: "lower"},
	{name: "proto.decode_ns.prepare", unit: "ns", better: "lower"},
	{name: "proto.wire_bytes.write", unit: "B", better: "lower"},
	{name: "proto.allocs_per_roundtrip.write", unit: "count", better: "lower"},
	{name: "tcpnet.call_rtt_us", unit: "us", better: "lower"},
	{name: "tcpnet.call_rtt_us_c2", unit: "us", better: "lower"},
	{name: "lockmgr.acquire_release_ns", unit: "ns", better: "lower"},
	{name: "lockmgr.handoff_ns", unit: "ns", better: "lower"},
	{name: "wal.append_ns", unit: "ns", better: "lower"},
	{name: "wal.append_group_ns", unit: "ns", better: "lower"},
	{name: "wal.sink_calls_per_commit", unit: "count", better: "lower"},
	{name: "storage.mem_install_ns", unit: "ns", better: "lower"},
	{name: "storage.disk_install_ns", unit: "ns", better: "lower"},
	{name: "storage.disk_install_evict_ns", unit: "ns", better: "lower"},
	{name: "storage.disk_read_ns", unit: "ns", better: "lower"},
	{name: "dm.participant_commit_us", unit: "us", better: "lower"},
	{name: "core.netsim_commit_us", unit: "us", better: "lower"},
}
