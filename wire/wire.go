// Package wire defines the JSON request/response types of the depminerd
// HTTP API. It is the single source of truth shared by the server
// (internal/server) and the public Go client (repro/client), so the two
// sides cannot drift: a field added here is immediately visible to both.
//
// The package is deliberately dependency-free (standard library only)
// and contains no behaviour beyond JSON shape — policy lives in the
// server, transport in the client.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Job states reported in JobInfo.State.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// RequestIDHeader carries the per-request correlation id. The server's
// middleware adopts an incoming value (generating one otherwise), echoes
// it on the response, and stamps it on every log line the request
// produces; a shard coordinator forwards it on its worker dispatches, so
// one id joins a discovery's log lines across the whole fleet.
const RequestIDHeader = "X-Depminer-Request-Id"

// VersionResponse is the body of GET /v1/version: what build is
// serving, from the binary's embedded module and VCS metadata.
type VersionResponse struct {
	// Version is the main module version ("(devel)" for plain builds).
	Version string `json:"version"`
	// Revision is the VCS commit the binary was built from, "unknown"
	// when the build carried no VCS metadata.
	Revision string `json:"revision"`
	// Dirty reports uncommitted changes at build time.
	Dirty bool `json:"dirty,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
}

// DatasetInfo is the wire description of a registered dataset.
type DatasetInfo struct {
	ID          string    `json:"id"`
	Name        string    `json:"name,omitempty"`
	Fingerprint string    `json:"fingerprint"`
	Rows        int       `json:"rows"`
	Attributes  int       `json:"attributes"`
	Names       []string  `json:"names"`
	Version     int       `json:"version"`
	Created     time.Time `json:"created"`
}

// DiscoverRequest is the body of POST /v1/discover. The server decodes
// it strictly (DecodeStrict): unknown fields are rejected with 400, so a
// misspelled knob fails loudly instead of silently running with defaults.
type DiscoverRequest struct {
	// Dataset is the registered dataset id (required).
	Dataset string `json:"dataset"`
	// Algorithm is depminer (default), depminer2, fastfds, tane, or
	// incremental (re-derive from the maintained session, no re-scan).
	Algorithm string `json:"algorithm,omitempty"`
	// Workers is the worker-pool width (0 = server default).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS is the requested deadline, clamped to the server's
	// MaxTimeout (0 = the server cap).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// BudgetUnits is the requested guard unit budget, clamped to the
	// server's MaxBudgetUnits.
	BudgetUnits int64 `json:"budget_units,omitempty"`
	// Epsilon is the approximate-dependency threshold (tane only).
	Epsilon float64 `json:"epsilon,omitempty"`
	// MaxPartitionBytes caps resident partition bytes (tane only).
	MaxPartitionBytes int64 `json:"max_partition_bytes,omitempty"`
	// MaxAgreeBytes caps resident agree-set bytes per worker pool;
	// accumulators past the cap spill sorted runs to disk and are merged
	// back streamingly (depminer/depminer2/fastfds only). 0 = the server
	// default, clamped to the server's MaxAgreeBytes. The discovered
	// cover is byte-identical for every threshold.
	MaxAgreeBytes int64 `json:"max_agree_bytes,omitempty"`
	// Armstrong includes the Armstrong relation in the response
	// (depminer/depminer2/fastfds only; other miners answer 400).
	Armstrong bool `json:"armstrong,omitempty"`
	// Shards is the shard count for distributed discovery
	// (depminer/depminer2/fastfds only), honoured only by a
	// coordinator-configured server (0 = the coordinator's default, one
	// shard per worker endpoint). Like spill knobs, shard topology is
	// an execution detail: the cover is byte-identical at every count.
	Shards int `json:"shards,omitempty"`
	// Async forces the execution mode; nil applies the server's
	// row-count threshold.
	Async *bool `json:"async,omitempty"`
}

// DiscoverResponse is the outcome of a discovery, inline (sync) or via a
// job record (async).
type DiscoverResponse struct {
	Dataset            string     `json:"dataset"`
	Fingerprint        string     `json:"fingerprint"`
	Algorithm          string     `json:"algorithm"`
	Rows               int        `json:"rows"`
	Attributes         int        `json:"attributes"`
	FDs                []string   `json:"fds"`
	Cached             bool       `json:"cached"`
	Partial            bool       `json:"partial,omitempty"`
	Error              string     `json:"error,omitempty"`
	Couples            int        `json:"couples,omitempty"`
	AgreeSets          int        `json:"agree_sets,omitempty"`
	MaxSets            int        `json:"max_sets,omitempty"`
	LatticeNodes       int        `json:"lattice_nodes,omitempty"`
	DFSNodes           int        `json:"dfs_nodes,omitempty"`
	Armstrong          [][]string `json:"armstrong,omitempty"`
	ArmstrongSynthetic bool       `json:"armstrong_synthetic,omitempty"`
	BudgetUsed         int64      `json:"budget_used,omitempty"`
	SpilledRuns        int64      `json:"spilled_runs,omitempty"`
	SpilledBytes       int64      `json:"spilled_bytes,omitempty"`
	// Shards reports how the agree-set phase was split on a
	// coordinator-served discovery (0 = single-node), with the remote /
	// local-fallback breakdown.
	Shards       int `json:"shards,omitempty"`
	ShardsRemote int `json:"shards_remote,omitempty"`
	ShardsLocal  int `json:"shards_local,omitempty"`
	// SnapshotStreamed reports that the dataset was fed to the miner by
	// streaming its durable snapshot column by column, without
	// materialising the relation in memory.
	SnapshotStreamed bool    `json:"snapshot_streamed,omitempty"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

// JobInfo is the wire description of an async discovery job.
type JobInfo struct {
	ID        string            `json:"id"`
	Dataset   string            `json:"dataset"`
	Algorithm string            `json:"algorithm"`
	State     string            `json:"state"`
	Created   time.Time         `json:"created"`
	Finished  *time.Time        `json:"finished,omitempty"`
	Error     string            `json:"error,omitempty"`
	Result    *DiscoverResponse `json:"result,omitempty"`
}

// RegisterResponse is the body of POST /v1/datasets.
type RegisterResponse struct {
	DatasetInfo
	// Existing reports idempotent re-registration of identical content.
	Existing bool `json:"existing,omitempty"`
}

// AppendResponse is the body of POST /v1/datasets/{id}/rows.
type AppendResponse struct {
	ID          string `json:"id"`
	Appended    int    `json:"appended"`
	Rows        int    `json:"rows"`
	Fingerprint string `json:"fingerprint"`
	Invalidated int    `json:"invalidated"`
	Error       string `json:"error,omitempty"`
}

// JobQueueStats is the jobs section of /v1/stats.
type JobQueueStats struct {
	Cap         int   `json:"cap"`
	Running     int   `json:"running"`
	PeakRunning int   `json:"peak_running"`
	Admitted    int64 `json:"admitted"`
	Rejected    int64 `json:"rejected"`
	Retained    int   `json:"retained"`
}

// CacheStats is the cache section of /v1/stats.
type CacheStats struct {
	Entries       int   `json:"entries"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// DiscoveryStats is the discovery section of /v1/stats.
type DiscoveryStats struct {
	Total   int64 `json:"total"`
	Partial int64 `json:"partial"`
	Failed  int64 `json:"failed"`
	Sync    int64 `json:"sync"`
	Async   int64 `json:"async"`
	// SnapshotStreams counts discoveries fed by streaming a durable
	// snapshot instead of materialising the relation.
	SnapshotStreams int64              `json:"snapshot_streams,omitempty"`
	PhaseTotalMS    map[string]float64 `json:"phase_total_ms"`
}

// PstoreStats is the partition-store section of /v1/stats, aggregated
// over every TANE run the process served.
type PstoreStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	Recomputes int64 `json:"recomputes"`
	PeakBytes  int64 `json:"peak_bytes"`
}

// SpillStats is the out-of-core section of /v1/stats: external-merge
// activity of the agree-set phase, aggregated over every discovery the
// process served.
type SpillStats struct {
	RunsSpilled  int64 `json:"runs_spilled"`
	SpilledSets  int64 `json:"spilled_sets"`
	SpilledBytes int64 `json:"spilled_bytes"`
	MergedRuns   int64 `json:"merged_runs"`
	ReadBlocks   int64 `json:"read_blocks"`
}

// DurableStats reports the durability layer: WAL and snapshot activity
// since boot plus what recovery found on disk. Present only when the
// server runs with a data directory.
type DurableStats struct {
	Datasets        int   `json:"datasets"`
	AppendRecords   int64 `json:"append_records"`
	Syncs           int64 `json:"syncs"`
	BatchedRecords  int64 `json:"batched_records"`
	Snapshots       int64 `json:"snapshots"`
	CompactErrors   int64 `json:"compact_errors"`
	WALBytes        int64 `json:"wal_bytes"`
	Recovered       int   `json:"recovered"`
	ReplayedRecords int64 `json:"replayed_records"`
	TruncatedTails  int64 `json:"truncated_tails"`
	Quarantined     int   `json:"quarantined"`
	Broken          int   `json:"broken"`
	// QuarantinedSets lists the datasets recovery set aside at the last
	// boot, with the structured reason written to their REASON.json.
	QuarantinedSets []QuarantinedDataset `json:"quarantined_sets,omitempty"`
}

// QuarantinedDataset is one dataset recovery refused to serve.
type QuarantinedDataset struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
	Path   string `json:"path"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeMS    float64        `json:"uptime_ms"`
	Draining    bool           `json:"draining"`
	Datasets    int            `json:"datasets"`
	Jobs        JobQueueStats  `json:"jobs"`
	Cache       CacheStats     `json:"cache"`
	Discoveries DiscoveryStats `json:"discoveries"`
	Pstore      PstoreStats    `json:"pstore"`
	Spill       SpillStats     `json:"spill"`
	Durable     *DurableStats  `json:"durable,omitempty"`
	// Shard is the distributed-discovery section: coordinator fan-out and
	// worker serving counters. Present only on shard-role servers.
	Shard *ShardStats `json:"shard,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DecodeStrict decodes one JSON value from r into v, rejecting unknown
// fields and trailing data. The server applies it to request bodies whose
// fields are behavioural knobs (POST /v1/discover), so a typo like
// "budgetunits" is a 400, not a silently ignored option.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Demand a clean EOF: More() is not enough — it answers false for a
	// stray ']' or '}', which json.Unmarshal would reject.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
