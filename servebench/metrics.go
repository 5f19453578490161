package main

// metricDef names one reported metric. predicts is the end-to-end
// metric a per-layer metric should move, and on which workload; it is
// written down before any change is measured against it.
type metricDef struct {
	name, unit, better, predicts string
}

// endToEnd are measured with the program's tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "committed_tps", unit: "tx/s", better: "higher"},
	{name: "commit_p50_ms", unit: "ms", better: "lower"},
	{name: "commit_p99_ms", unit: "ms", better: "lower"},
	{name: "ack_p50_ms", unit: "ms", better: "lower"},
	{name: "cpu_us_per_tx", unit: "us", better: "lower"},
	{name: "alloc_bytes_per_tx", unit: "B", better: "lower"},
}

// perLayer come from the traced run. A metric of a layer the workload
// does not exercise (the HTTP handler on tcp-mixed, say) reads 0.
var perLayer = []metricDef{
	{"failed_frac", "ratio", "lower", "the share of offered txs shed, lost in transport or expired; 0 on every workload at this commit"},
	{"ack_p99_ms", "ms", "lower", "client-observed submit->ack p99 on every front end; unbounded, see README"},
	{"ingest.http.handle_us_p50", "us", "lower", "cpu_us_per_tx, ack_p50_ms on http-open"},
	{"ingest.http.handle_us_p99", "us", "lower", "ack_p99_ms on http-open"},
	{"ingest.http.busy_share", "ratio", "lower", "cpu_us_per_tx on http-open"},
	{"ingest.wire.bytes_in_per_tx", "B", "lower", "cpu_us_per_tx on http-open and tcp-mixed"},
	{"ingest.wire.bytes_out_per_req", "B", "lower", "cpu_us_per_tx on http-open and tcp-mixed"},
	{"ingest.tcp.txs_rtt_us_p50", "us", "lower", "ack_p50_ms, cpu_us_per_tx on tcp-mixed"},
	{"ingest.tcp.txs_rtt_us_p99", "us", "lower", "ack_p99_ms on tcp-mixed"},
	{"ingest.tcp.report_rtt_us_p50", "us", "lower", "ack_p50_ms, cpu_us_per_tx on tcp-mixed"},
	{"ingest.submit_us_p50", "us", "lower", "ack_p50_ms on epoch-open"},
	{"ingest.submit_us_p99", "us", "lower", "ack_p99_ms on epoch-open"},
	{"ingest.next_us_p50", "us", "higher", "the epoch loop's headroom: which layer would bound committed_tps at a higher rate"},
	{"ingest.next_idle_share", "ratio", "higher", "the epoch loop's headroom: which layer would bound committed_tps at a higher rate"},
	{"ingest.flush_txs_p50", "tx", "lower", "commit_p99_ms"},
	{"ingest.queue_txs_p99", "tx", "lower", "commit_p99_ms"},
	{"ingest.fill_us_p50", "us", "lower", "commit_p50_ms on epoch-open"},
	{"ingest.deliver_us_p50", "us", "lower", "commit_p50_ms on epoch-open"},
	{"txpool.drain_ns_per_tx", "ns", "lower", "cpu_us_per_tx on http-open and tcp-mixed; no change on epoch-open"},
	{"epoch.run_us_p50", "us", "lower", "commit_p50_ms, cpu_us_per_tx on epoch-open"},
	{"epoch.run_us_p99", "us", "lower", "commit_p99_ms on epoch-open"},
	{"epoch.per_s", "1/s", "higher", "commit_p50_ms on epoch-open"},
	{"epoch.busy_share", "ratio", "lower", "commit_p50_ms on epoch-open; freed CPU on http-open"},
	{"epoch.consensus_us_p50", "us", "lower", "commit_p50_ms, cpu_us_per_tx on epoch-open"},
	{"epoch.collect_us_p50", "us", "lower", "commit_p50_ms, cpu_us_per_tx on epoch-open"},
	{"epoch.solve_us_p50", "us", "lower", "commit_p50_ms, cpu_us_per_tx on epoch-open"},
	{"epoch.commit_us_p50", "us", "lower", "commit_p50_ms, cpu_us_per_tx on epoch-open"},
	{"epoch.self_us_p50", "us", "lower", "commit_p50_ms, cpu_us_per_tx on epoch-open"},
	{"epoch.quiet_frac", "ratio", "lower", "useful work of the epoch loop"},
	{"epoch.permit_ratio", "ratio", "higher", "useful work of the epoch loop"},
	{"epoch.deferred_per_epoch", "count", "lower", "commit_p99_ms"},
	{"se.rounds_per_epoch", "count", "lower", "commit_p50_ms on epoch-open"},
	{"se.ns_per_round", "ns", "lower", "commit_p50_ms on epoch-open"},
	{"decisionlog.bytes_per_entry", "B", "lower", "cpu_us_per_tx on epoch-open"},
	{"chain.shards_per_block", "count", "higher", "commit_p99_ms (a shard left out waits for a later block)"},
	{"obs.trace_overhead_pct", "%", "lower", "cpu_us_per_tx, traced over untraced"},
	{"obs.trace_dropped", "count", "lower", "must be 0"},
	{"loadgen.late_p50_ms", "ms", "lower", "read beside commit_p50_ms and ack_p50_ms"},
	{"loadgen.late_p99_ms", "ms", "lower", "read beside commit_p99_ms and ack_p99_ms"},
	{"runtime.gc_per_s", "1/s", "lower", "alloc_bytes_per_tx and the _p99 tails"},
	{"runtime.gc_cpu_share", "ratio", "lower", "alloc_bytes_per_tx and the _p99 tails"},
	{"runtime.heap_peak_mb", "MB", "lower", "alloc_bytes_per_tx and the _p99 tails"},
}
