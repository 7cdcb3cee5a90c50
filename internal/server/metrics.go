package server

// The metrics bridge: one statsSnapshot feeds both GET /v1/stats (JSON)
// and GET /metrics (Prometheus text). The JSON handler renders the
// snapshot directly; the registry sampler below maps the same snapshot
// onto declared metric families at scrape time. Neither endpoint has
// counters of its own, so the two can never disagree about a number.
// Only the HTTP request metrics (and build info) are native registry
// instruments — they have no /v1/stats counterpart.

import (
	"strings"
	"time"

	"repro/internal/obs"
	"repro/wire"
)

// metricPrefix namespaces every depminerd metric family.
const metricPrefix = "depminerd"

// statsSnapshot assembles the full operational state of the server —
// the single source both /v1/stats and the sampled /metrics families
// read from.
func (s *Server) statsSnapshot() StatsResponse {
	s.stats.mu.Lock()
	disc := s.stats.counts
	disc.PhaseTotalMS = make(map[string]float64, len(s.stats.phases))
	for name, d := range s.stats.phases {
		disc.PhaseTotalMS[name] = float64(d) / float64(time.Millisecond)
	}
	ps := s.stats.pstore
	sp := SpillStats(s.stats.spill)
	shc := s.stats.shard
	s.stats.mu.Unlock()
	resp := StatsResponse{
		UptimeMS:    float64(time.Since(s.started)) / float64(time.Millisecond),
		Draining:    s.Draining(),
		Datasets:    s.reg.count(),
		Jobs:        s.jobs.stats(),
		Cache:       s.cache.stats(),
		Discoveries: disc,
		Pstore:      ps,
		Spill:       sp,
	}
	if s.store != nil {
		st := s.store.Stats()
		dur := &wire.DurableStats{
			Datasets:        st.Datasets,
			AppendRecords:   st.AppendRecords,
			Syncs:           st.Syncs,
			BatchedRecords:  st.BatchedRecords,
			Snapshots:       st.Snapshots,
			CompactErrors:   st.CompactErrors,
			WALBytes:        st.WALBytes,
			Recovered:       st.Recovered,
			ReplayedRecords: st.ReplayedRecords,
			TruncatedTails:  st.TruncatedTails,
			Quarantined:     st.Quarantined,
			Broken:          st.Broken,
		}
		for _, q := range s.recovery.Quarantined {
			dur.QuarantinedSets = append(dur.QuarantinedSets, wire.QuarantinedDataset{
				ID: q.ID, Reason: q.Reason, Path: q.Path,
			})
		}
		resp.Durable = dur
	}
	// Coordinator counters move only on a coordinator; a worker shows
	// the section once it has served.
	if s.fleet != nil || shc.served != 0 || shc.servedErrors != 0 {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		resp.Shard = &wire.ShardStats{
			Dispatched:      shc.dispatched,
			Remote:          shc.remote,
			LocalFallbacks:  shc.localFallbacks,
			DatasetsPushed:  shc.datasetsPushed,
			ReceivedSets:    shc.receivedSets,
			ReceivedBytes:   shc.receivedBytes,
			DispatchTotalMS: ms(shc.dispatchTime),
			StreamTotalMS:   ms(shc.streamTime),
			MergeTotalMS:    ms(shc.mergeTime),
			Served:          shc.served,
			ServedSets:      shc.servedSets,
			ServedErrors:    shc.servedErrors,
		}
	}
	return resp
}

// statsMetric is one sampled /metrics family over a section S of the
// stats snapshot: its declaration plus how to read its value. Following
// the Prometheus naming convention, a family is a counter exactly when
// its name ends in _total, and a gauge otherwise.
type statsMetric[S any] struct {
	name, help string
	value      func(*S) float64
}

// The sampled families, one table per /v1/stats section, named without
// metricPrefix. The durable and shard tables emit nothing when the
// snapshot lacks their section. The one labelled family,
// phase_seconds_total, is registered beside them.
var statsMetrics = []statsMetric[StatsResponse]{
	{"uptime_seconds", "Seconds since the server started.", func(st *StatsResponse) float64 { return st.UptimeMS / 1000 }},
	{"draining", "1 once Shutdown began, 0 while serving.", func(st *StatsResponse) float64 {
		if st.Draining {
			return 1
		}
		return 0
	}},
	{"datasets", "Registered datasets.", func(st *StatsResponse) float64 { return float64(st.Datasets) }},

	{"jobs_cap", "Admission cap on concurrently running discoveries.", func(st *StatsResponse) float64 { return float64(st.Jobs.Cap) }},
	{"jobs_running", "Discoveries currently holding an admission slot.", func(st *StatsResponse) float64 { return float64(st.Jobs.Running) }},
	{"jobs_peak_running", "High-water mark of concurrently running discoveries.", func(st *StatsResponse) float64 { return float64(st.Jobs.PeakRunning) }},
	{"jobs_retained", "Retained finished async job records.", func(st *StatsResponse) float64 { return float64(st.Jobs.Retained) }},
	{"jobs_admitted_total", "Discoveries admitted past the job cap.", func(st *StatsResponse) float64 { return float64(st.Jobs.Admitted) }},
	{"jobs_rejected_total", "Discoveries rejected with 429 at the job cap.", func(st *StatsResponse) float64 { return float64(st.Jobs.Rejected) }},

	{"cache_entries", "Result-cache entries resident.", func(st *StatsResponse) float64 { return float64(st.Cache.Entries) }},
	{"cache_hits_total", "Result-cache hits.", func(st *StatsResponse) float64 { return float64(st.Cache.Hits) }},
	{"cache_misses_total", "Result-cache misses.", func(st *StatsResponse) float64 { return float64(st.Cache.Misses) }},
	{"cache_evictions_total", "Result-cache LRU evictions.", func(st *StatsResponse) float64 { return float64(st.Cache.Evictions) }},
	{"cache_invalidations_total", "Result-cache entries invalidated by appends.", func(st *StatsResponse) float64 { return float64(st.Cache.Invalidations) }},

	{"discoveries_total", "Discoveries finished, any outcome.", func(st *StatsResponse) float64 { return float64(st.Discoveries.Total) }},
	{"discoveries_partial_total", "Discoveries cut off by governance (partial results).", func(st *StatsResponse) float64 { return float64(st.Discoveries.Partial) }},
	{"discoveries_failed_total", "Discoveries that failed outright.", func(st *StatsResponse) float64 { return float64(st.Discoveries.Failed) }},
	{"discoveries_sync_total", "Discoveries served synchronously.", func(st *StatsResponse) float64 { return float64(st.Discoveries.Sync) }},
	{"discoveries_async_total", "Discoveries served as async jobs.", func(st *StatsResponse) float64 { return float64(st.Discoveries.Async) }},
	{"snapshot_streams_total", "Discoveries fed by streaming a durable snapshot.", func(st *StatsResponse) float64 { return float64(st.Discoveries.SnapshotStreams) }},

	{"pstore_hits_total", "Partition-store hits (tane).", func(st *StatsResponse) float64 { return float64(st.Pstore.Hits) }},
	{"pstore_misses_total", "Partition-store misses (tane).", func(st *StatsResponse) float64 { return float64(st.Pstore.Misses) }},
	{"pstore_evictions_total", "Partition-store evictions (tane).", func(st *StatsResponse) float64 { return float64(st.Pstore.Evictions) }},
	{"pstore_recomputes_total", "Partitions recomputed after eviction (tane).", func(st *StatsResponse) float64 { return float64(st.Pstore.Recomputes) }},
	{"pstore_peak_bytes", "Peak resident partition bytes across tane runs.", func(st *StatsResponse) float64 { return float64(st.Pstore.PeakBytes) }},

	{"spill_runs_total", "Agree-set runs spilled to disk.", func(st *StatsResponse) float64 { return float64(st.Spill.RunsSpilled) }},
	{"spill_sets_total", "Agree sets written to spill runs.", func(st *StatsResponse) float64 { return float64(st.Spill.SpilledSets) }},
	{"spill_bytes_total", "Bytes written to spill runs.", func(st *StatsResponse) float64 { return float64(st.Spill.SpilledBytes) }},
	{"spill_merged_runs_total", "Spill runs fed back through the k-way merge.", func(st *StatsResponse) float64 { return float64(st.Spill.MergedRuns) }},
	{"spill_read_blocks_total", "CRC-framed blocks read back from spill runs.", func(st *StatsResponse) float64 { return float64(st.Spill.ReadBlocks) }},
}

var durableMetrics = []statsMetric[wire.DurableStats]{
	{"durable_datasets", "Datasets with a durable handle.", func(d *wire.DurableStats) float64 { return float64(d.Datasets) }},
	{"durable_append_records_total", "WAL append records acknowledged.", func(d *wire.DurableStats) float64 { return float64(d.AppendRecords) }},
	{"durable_syncs_total", "WAL fsync calls.", func(d *wire.DurableStats) float64 { return float64(d.Syncs) }},
	{"durable_batched_records_total", "WAL records that shared a group-commit fsync.", func(d *wire.DurableStats) float64 { return float64(d.BatchedRecords) }},
	{"durable_snapshots_total", "Background snapshot compactions completed.", func(d *wire.DurableStats) float64 { return float64(d.Snapshots) }},
	{"durable_compact_errors_total", "Background compactions that failed.", func(d *wire.DurableStats) float64 { return float64(d.CompactErrors) }},
	{"durable_wal_bytes", "Live WAL bytes on disk.", func(d *wire.DurableStats) float64 { return float64(d.WALBytes) }},
	{"durable_recovered", "Datasets recovered at the last boot.", func(d *wire.DurableStats) float64 { return float64(d.Recovered) }},
	{"durable_replayed_records_total", "WAL records replayed at the last boot.", func(d *wire.DurableStats) float64 { return float64(d.ReplayedRecords) }},
	{"durable_truncated_tails_total", "Torn WAL tails truncated at the last boot.", func(d *wire.DurableStats) float64 { return float64(d.TruncatedTails) }},
	{"durable_quarantined", "Datasets quarantined by recovery.", func(d *wire.DurableStats) float64 { return float64(d.Quarantined) }},
	{"durable_broken", "Datasets sticky-broken by a durability failure (read-only until restart).", func(d *wire.DurableStats) float64 { return float64(d.Broken) }},
}

var shardMetrics = []statsMetric[wire.ShardStats]{
	{"shard_dispatched_total", "Shards dispatched by this coordinator.", func(sh *wire.ShardStats) float64 { return float64(sh.Dispatched) }},
	{"shard_remote_total", "Shards served remotely by a worker.", func(sh *wire.ShardStats) float64 { return float64(sh.Remote) }},
	{"shard_local_fallbacks_total", "Shards computed locally after a remote failure.", func(sh *wire.ShardStats) float64 { return float64(sh.LocalFallbacks) }},
	{"shard_datasets_pushed_total", "Datasets pushed to cold workers.", func(sh *wire.ShardStats) float64 { return float64(sh.DatasetsPushed) }},
	{"shard_received_sets_total", "Agree sets received from worker streams.", func(sh *wire.ShardStats) float64 { return float64(sh.ReceivedSets) }},
	{"shard_received_bytes_total", "Bytes received from worker streams.", func(sh *wire.ShardStats) float64 { return float64(sh.ReceivedBytes) }},
	{"shard_dispatch_seconds_total", "Cumulative dispatch time (request to first stream byte).", func(sh *wire.ShardStats) float64 { return sh.DispatchTotalMS / 1000 }},
	{"shard_stream_seconds_total", "Cumulative stream-adoption time.", func(sh *wire.ShardStats) float64 { return sh.StreamTotalMS / 1000 }},
	{"shard_merge_seconds_total", "Cumulative coordinator merge time.", func(sh *wire.ShardStats) float64 { return sh.MergeTotalMS / 1000 }},
	{"shard_served_total", "Shard requests this worker served to completion.", func(sh *wire.ShardStats) float64 { return float64(sh.Served) }},
	{"shard_served_sets_total", "Agree sets this worker streamed out.", func(sh *wire.ShardStats) float64 { return float64(sh.ServedSets) }},
	{"shard_served_errors_total", "Shard requests this worker failed.", func(sh *wire.ShardStats) float64 { return float64(sh.ServedErrors) }},
}

// registerStatsMetrics declares the sampled metric families and installs
// the one sampler that maps a statsSnapshot onto them per scrape.
func (s *Server) registerStatsMetrics(reg *obs.Registry) {
	const phases = metricPrefix + "_phase_seconds_total"
	reg.DeclareSampled(phases, "Cumulative discovery pipeline time by phase.", obs.KindCounterFamily)
	declareStats(reg, statsMetrics)
	declareStats(reg, durableMetrics)
	declareStats(reg, shardMetrics)
	reg.Sampler(func(emit obs.EmitFunc) {
		st := s.statsSnapshot()
		for phase, ms := range st.Discoveries.PhaseTotalMS {
			emit(phases, []obs.Label{{Name: "phase", Value: phase}}, ms/1000)
		}
		emitStats(emit, statsMetrics, &st)
		emitStats(emit, durableMetrics, st.Durable)
		emitStats(emit, shardMetrics, st.Shard)
	})
}

func declareStats[S any](reg *obs.Registry, table []statsMetric[S]) {
	for _, m := range table {
		kind := obs.KindGaugeFamily
		if strings.HasSuffix(m.name, "_total") {
			kind = obs.KindCounterFamily
		}
		reg.DeclareSampled(metricPrefix+"_"+m.name, m.help, kind)
	}
}

// emitStats emits table's families read off section, unless the
// snapshot lacks it.
func emitStats[S any](emit obs.EmitFunc, table []statsMetric[S], section *S) {
	if section == nil {
		return
	}
	for _, m := range table {
		emit(metricPrefix+"_"+m.name, nil, m.value(section))
	}
}
