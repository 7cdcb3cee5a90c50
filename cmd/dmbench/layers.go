package main

import (
	"repro/wire"
)

// counters are the /v1/stats fields the server-side per-layer metrics
// use, summed as deltas over a traced phase. They are process-wide, so
// the metrics built from them are averages over the phase, never
// per-request figures.
type counters struct {
	phaseMS                        map[string]float64
	hits, misses, rejected         int64
	streams, spillRuns, spillBytes int64
	dispatched, remote, pushed     int64
	receivedBytes                  int64
	dispatchMS, streamMS, mergeMS  float64
	appendRecords, syncs, snaps    int64
}

// add accumulates after minus before.
func (c *counters) add(before, after *wire.StatsResponse) {
	if c.phaseMS == nil {
		c.phaseMS = make(map[string]float64)
	}
	for k, v := range after.Discoveries.PhaseTotalMS {
		c.phaseMS[k] += v - before.Discoveries.PhaseTotalMS[k]
	}
	c.hits += after.Cache.Hits - before.Cache.Hits
	c.misses += after.Cache.Misses - before.Cache.Misses
	c.rejected += after.Jobs.Rejected - before.Jobs.Rejected
	c.streams += after.Discoveries.SnapshotStreams - before.Discoveries.SnapshotStreams
	c.spillRuns += after.Spill.RunsSpilled - before.Spill.RunsSpilled
	c.spillBytes += after.Spill.SpilledBytes - before.Spill.SpilledBytes
	if a := after.Shard; a != nil {
		p := before.Shard
		if p == nil {
			p = &wire.ShardStats{}
		}
		c.dispatched += a.Dispatched - p.Dispatched
		c.remote += a.Remote - p.Remote
		c.pushed += a.DatasetsPushed - p.DatasetsPushed
		c.receivedBytes += a.ReceivedBytes - p.ReceivedBytes
		c.dispatchMS += a.DispatchTotalMS - p.DispatchTotalMS
		c.streamMS += a.StreamTotalMS - p.StreamTotalMS
		c.mergeMS += a.MergeTotalMS - p.MergeTotalMS
	}
	if a := after.Durable; a != nil {
		p := before.Durable
		if p == nil {
			p = &wire.DurableStats{}
		}
		c.appendRecords += a.AppendRecords - p.AppendRecords
		c.syncs += a.Syncs - p.Syncs
		c.snaps += a.Snapshots - p.Snapshots
	}
}

// serverPhases maps /v1/stats phase names onto per-layer metrics.
var serverPhases = map[string]string{
	"partition":  "server.phase_partition_ms",
	"agree_sets": "server.phase_agree_ms",
	"max_sets":   "server.phase_maxsets_ms",
	"lhs":        "server.phase_lhs_ms",
	"armstrong":  "server.phase_armstrong_ms",
}

// serverLayers derives the server workloads' per-layer metrics from a
// traced phase: the op records joined with their handler spans, the
// shard workers' spans, and the /v1/stats counters. It also checks that
// the layers nest: pipeline ≤ handler ≤ client call for every op, and
// the phases' total ≤ the pipelines' total.
func (b *bench) serverLayers(ph *phase, cn *counters) {
	spans := b.tr.byOp()
	type sum struct {
		n                  int
		handler, transport float64
	}
	sums := make(map[string]*sum)
	var overhead, pipelines, incPipelines float64
	var discovers, cold, incCold int
	for id, rec := range ph.ops {
		if rec.failed {
			continue
		}
		handler := -1.0
		for _, s := range spans[id] {
			if s.Name == "handler" {
				handler = s.ms()
			}
		}
		if handler < 0 {
			b.checkFailed("%s op %d has no server handler span", rec.kind, id)
			continue
		}
		if rec.pipelineMS > handler || handler > rec.ms {
			b.checkFailed("%s op %d: pipeline %.3f ms, handler %.3f ms, client call %.3f ms do not nest",
				rec.kind, id, rec.pipelineMS, handler, rec.ms)
		}
		s := sums[rec.kind]
		if s == nil {
			s = &sum{}
			sums[rec.kind] = s
		}
		s.n++
		s.handler += handler
		s.transport += rec.ms - handler
		switch rec.kind {
		case "discover":
			discovers++
			overhead += handler - max(rec.pipelineMS, 0)
			if rec.pipelineMS >= 0 {
				cold++
				pipelines += rec.pipelineMS
			}
		case "inc":
			if rec.pipelineMS >= 0 {
				incCold++
				incPipelines += rec.pipelineMS
			}
		}
	}
	for kind, s := range sums {
		b.layer["server."+kind+"_handler_ms"] = s.handler / float64(s.n)
		b.layer["client."+kind+"_transport_ms"] = s.transport / float64(s.n)
	}
	perCold := func(v float64) float64 { return ratio(v, float64(cold)) }
	b.layer["server.discover_overhead_ms"] = ratio(overhead, float64(discovers))
	b.layer["server.discover_pipeline_ms"] = perCold(pipelines)
	phases := 0.0
	for stat, metric := range serverPhases {
		phases += cn.phaseMS[stat]
		b.layer[metric] = perCold(cn.phaseMS[stat])
	}
	if phases > pipelines+1e-6 {
		b.checkFailed("server phases total %.3f ms exceeds the pipelines' %.3f ms", phases, pipelines)
	}
	b.layer["server.unattributed_ms"] = perCold(pipelines - phases)
	b.layer["incremental.inc_pipeline_ms"] = ratio(incPipelines, float64(incCold))
	b.layer["cache.hit_ratio"] = ratio(float64(cn.hits), float64(cn.hits+cn.misses))
	b.layer["admission.rejected"] = float64(cn.rejected)
	b.layer["durable.records_per_sync"] = ratio(float64(cn.appendRecords), float64(cn.syncs))
	b.layer["durable.snapshots_per_1k_appends"] = 1000 * ratio(float64(cn.snaps), float64(cn.appendRecords))
	b.layer["snapshot.stream_ratio"] = perCold(float64(cn.streams))
	b.layer["spill.runs_per_discovery"] = perCold(float64(cn.spillRuns))
	b.layer["spill.bytes_per_discovery"] = perCold(float64(cn.spillBytes))
	worker := b.tr.byName()["worker.v1.shard.agree"]
	b.layer["shard.worker_handler_ms"] = meanMS(worker)
	b.layer["shard.calls_per_discovery"] = perCold(float64(len(worker)))
	b.layer["shard.remote_ratio"] = ratio(float64(cn.remote), float64(cn.dispatched))
	b.layer["shard.pushes"] = float64(cn.pushed)
	b.layer["shard.dispatch_ms"] = perCold(cn.dispatchMS)
	b.layer["shard.stream_ms"] = perCold(cn.streamMS)
	b.layer["shard.merge_ms"] = perCold(cn.mergeMS)
	b.layer["shard.received_kb_per_discovery"] = perCold(float64(cn.receivedBytes) / 1024)
}
