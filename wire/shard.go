package wire

// Shard protocol types: the coordinator/worker split of the agree-set
// phase (DESIGN.md §15).
//
// A shard request names the dataset by its content fingerprint — not a
// registry id — so the worker provably computes over the same bytes the
// coordinator planned against; a worker that has never seen the
// fingerprint answers 404 and the coordinator pushes the dataset through
// the ordinary registration API (fingerprints are content-derived, so
// both sides converge on the same id). The response body is not JSON: it
// is a DMRUN1 run stream (Content-Type RunContentType) — the same
// CRC32C-framed format as spill files — carrying the shard's sorted
// deduplicated agree sets, with the true record count and the shard's
// couple count attested in HTTP trailers the coordinator verifies after
// EOF.

// RunContentType is the media type of a DMRUN1 agree-set run stream.
const RunContentType = "application/x-depminer-run"

// ShardSetsTrailer is the HTTP trailer carrying the worker's
// end-of-stream record count. A stream that ends cleanly (valid terminal
// chunk) but disagrees with this count is discarded: framing CRCs catch
// torn or corrupted blocks, the trailer catches a stream truncated at a
// block boundary by a worker that died politely.
const ShardSetsTrailer = "X-Depminer-Shard-Sets"

// ShardCouplesTrailer is the HTTP trailer carrying the number of couples
// the worker's sweep met in the shard's tuples. The coordinator adds it
// to the discovery's couple count and charges it to its budget; a
// stream without it is discarded like a sets mismatch.
const ShardCouplesTrailer = "X-Depminer-Shard-Couples"

// ShardRequest is the body of POST /v1/shard/agree: compute the agree
// sets of the couples of tuples [TupleStart, TupleEnd) of the named
// dataset — each tuple u with every earlier tuple sharing a class with
// it — and stream them back as a DMRUN1 run.
type ShardRequest struct {
	// Fingerprint is the content fingerprint of the dataset to compute
	// over (required). 404 if this worker has no dataset with it.
	Fingerprint string `json:"fingerprint"`
	// Algorithm selects the sweep: "depminer" (Algorithm 2, the default)
	// or "depminer2" (Algorithm 3). The coordinator maps the discovery's
	// miner to it once, so every shard of one discovery carries the same
	// value.
	Algorithm string `json:"algorithm,omitempty"`
	// TupleStart and TupleEnd bound the shard's half-open tuple range.
	// The couples of a tuple depend on the data alone, so the range
	// names the same couples on every node holding the fingerprint.
	TupleStart int `json:"tuple_start"`
	TupleEnd   int `json:"tuple_end"`
	// Workers is the worker-pool width for the sweep (0 = worker default).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS and BudgetUnits govern the shard computation on the
	// worker, clamped to the worker's own caps.
	TimeoutMS   int64 `json:"timeout_ms,omitempty"`
	BudgetUnits int64 `json:"budget_units,omitempty"`
	// MaxAgreeBytes caps the worker's resident agree-set accumulation for
	// this shard (0 = worker default), spilling past it as usual.
	MaxAgreeBytes int64 `json:"max_agree_bytes,omitempty"`
}

// ShardStats is the distributed-discovery section of /v1/stats.
// Coordinator counters cover fan-out (dispatched = remote + local
// fallbacks), worker counters cover shard serving.
type ShardStats struct {
	// Coordinator side.
	Dispatched     int64 `json:"dispatched"`
	Remote         int64 `json:"remote"`
	LocalFallbacks int64 `json:"local_fallbacks"`
	DatasetsPushed int64 `json:"datasets_pushed"`
	ReceivedSets   int64 `json:"received_sets"`
	ReceivedBytes  int64 `json:"received_bytes"`
	// Per-phase wall-clock totals across all shards (concurrent shards
	// overlap, so totals can exceed elapsed time).
	DispatchTotalMS float64 `json:"dispatch_total_ms"`
	StreamTotalMS   float64 `json:"stream_total_ms"`
	MergeTotalMS    float64 `json:"merge_total_ms"`
	// Worker side.
	Served       int64 `json:"served"`
	ServedSets   int64 `json:"served_sets"`
	ServedErrors int64 `json:"served_errors"`
}
