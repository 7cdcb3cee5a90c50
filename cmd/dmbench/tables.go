package main

import "context"

// workload is one named input set of the benchmark. why is the one-line
// reason it exists; BENCHMARK.json repeats both, and main_test.go keeps
// the two in step.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, b *bench) error
}

// workloads are ordered from a single library call to a sharded fleet.
// Each stresses a different layer, so an optimisation of one layer shows
// on one workload and is predicted flat on the others.
var workloads = []workload{
	{"tall-agree",
		"library Discover on 12 attrs x 30,000 rows, c=0.5: the paper's |r| axis, where the agree-set sweep is ~95% of an op",
		runTallAgree},
	{"wide-lhs",
		"library Discover on 30 attrs x 2,000 rows, c=0.3 (107k FDs): the |R| axis, where transversals and max sets dominate",
		runWideLHS},
	{"serve-hit",
		"16 warmed datasets inside the 128-entry result cache: only middleware, JSON and cache lookup run, never the pipeline",
		runServeHit},
	{"serve-ingest",
		"durable server, appends:inc:discover 2:1:1 on one growing table: WAL group commit, incremental insert, cold spilled discover",
		runServeIngest},
	{"serve-fleet",
		"coordinator plus 2 workers, 12 datasets over an 8-entry cache: every discover streams its snapshot, shards agree and spills",
		runServeFleet},
}

// metricDef is one reported metric as BENCHMARK.json declares it. bound
// is the share of the parent's median by which an end-to-end metric may
// worsen before a change counts as a regression; per-layer metrics have
// none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. The time-based bounds are the widest allowed: on the
// shared 2-vCPU testbed one build's latency drifts by tens of percent
// over minutes (README.md). The live heap holds within a few percent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"discover_p50_ms", "ms", "lower", 0.25},
	{"discover_p90_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics. A layer a workload does not
// reach reports 0 (the README says which metric each workload moves).
var perLayer = []metricDef{
	{"partition.build_ms", "ms", "lower", 0},
	{"agree.sweep_ms", "ms", "lower", 0},
	{"agree.couples", "count", "lower", 0},
	{"agree.sets_per_mcouple", "count", "higher", 0},
	{"maxsets.compute_ms", "ms", "lower", 0},
	{"maxsets.max_sets", "count", "lower", 0},
	{"hypergraph.transversal_ms", "ms", "lower", 0},
	{"hypergraph.fds", "count", "lower", 0},
	{"fd.emit_ms", "ms", "lower", 0},
	{"armstrong.build_ms", "ms", "lower", 0},
	{"core.alloc_mb_per_op", "MB", "lower", 0},
	{"core.gc_per_op", "count", "lower", 0},
	{"client.discover_p99_ms", "ms", "lower", 0},
	{"client.append_p50_ms", "ms", "lower", 0},
	{"client.append_p99_ms", "ms", "lower", 0},
	{"client.inc_p50_ms", "ms", "lower", 0},
	{"client.inc_p90_ms", "ms", "lower", 0},
	{"client.discover_transport_ms", "ms", "lower", 0},
	{"client.append_transport_ms", "ms", "lower", 0},
	{"client.inc_transport_ms", "ms", "lower", 0},
	{"client.retries", "count", "lower", 0},
	{"server.discover_handler_ms", "ms", "lower", 0},
	{"server.append_handler_ms", "ms", "lower", 0},
	{"server.inc_handler_ms", "ms", "lower", 0},
	{"server.discover_overhead_ms", "ms", "lower", 0},
	{"server.discover_pipeline_ms", "ms", "lower", 0},
	{"server.phase_partition_ms", "ms", "lower", 0},
	{"server.phase_agree_ms", "ms", "lower", 0},
	{"server.phase_maxsets_ms", "ms", "lower", 0},
	{"server.phase_lhs_ms", "ms", "lower", 0},
	{"server.phase_armstrong_ms", "ms", "lower", 0},
	{"server.unattributed_ms", "ms", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"admission.rejected", "count", "lower", 0},
	{"incremental.inc_pipeline_ms", "ms", "lower", 0},
	{"durable.records_per_sync", "count", "higher", 0},
	{"durable.snapshots_per_1k_appends", "count", "lower", 0},
	{"snapshot.stream_ratio", "ratio", "higher", 0},
	{"spill.runs_per_discovery", "count", "lower", 0},
	{"spill.bytes_per_discovery", "B", "lower", 0},
	{"shard.worker_handler_ms", "ms", "lower", 0},
	{"shard.calls_per_discovery", "count", "lower", 0},
	{"shard.remote_ratio", "ratio", "higher", 0},
	{"shard.pushes", "count", "lower", 0},
	{"shard.dispatch_ms", "ms", "lower", 0},
	{"shard.stream_ms", "ms", "lower", 0},
	{"shard.merge_ms", "ms", "lower", 0},
	{"shard.received_kb_per_discovery", "KB", "lower", 0},
	{"trace.closure_pct", "%", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
