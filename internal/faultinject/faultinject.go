// Package faultinject is a deterministic fault-injection harness for the
// robustness test suite: named hook points at every pipeline phase
// boundary and inside every worker loop. Production code calls
// Fire(point) at each hook; with no hook armed that is a single atomic
// load, so the instrumentation costs nothing in normal operation. Tests
// arm points with Set to inject errors, panics, or delays, and Reset
// afterwards.
//
// The registry is global — the hook points sit deep inside the pipelines,
// where threading an injection handle would distort every signature for
// the benefit of tests only. Tests that arm hooks must therefore not run
// in parallel with each other.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// The hook points. Phase boundaries fire once per run; worker-loop points
// (PoolTask, AgreeChunk, AgreeStride), level points (HypergraphLevel,
// TANELevel, KeysLevel, INDLevel, FastFDsAttr) and partition-store points
// (PstoreEvict, PstoreRecompute) fire once per unit of work.
const (
	CorePartition   = "core/partition"   // before the stripped-partition build
	CoreAgree       = "core/agree"       // before step 1 (agree sets)
	CoreMaxSets     = "core/maxsets"     // before step 2 (CMAX_SET)
	CoreLHS         = "core/lhs"         // before steps 3–4 (transversals)
	CoreArmstrong   = "core/armstrong"   // before step 5 (Armstrong relation)
	PoolTask        = "pool/task"        // inside every worker-pool task dispatch
	AgreeChunk      = "agree/chunk"      // at each Algorithm 2 batch of couples
	AgreeStride     = "agree/stride"     // at each Algorithm 3 batch of couples
	HypergraphLevel = "hypergraph/level" // at each transversal-search level
	TANELevel       = "tane/level"       // at each TANE lattice level
	KeysLevel       = "keys/level"       // at each key-search lattice level
	INDLevel        = "ind/level"        // at each IND candidate level (incl. unary)
	FastFDsAttr     = "fastfds/attr"     // before each per-attribute DFS
	PstoreEvict     = "pstore/evict"     // before each partition-store eviction
	PstoreRecompute = "pstore/recompute" // before each partition recompute on a store miss
	ExtsortFlush    = "extsort/flush"    // before each sorted run is flushed to a spill file
	ExtsortRead     = "extsort/read"     // before each checksummed block read back from a spill file
	ExtsortMerge    = "extsort/merge"    // at the start of the external k-way merge
)

// Storage and session hook points: the durable WAL/snapshot layer and the
// incremental miner. They fire on the serving path rather than inside a
// pipeline run, so the pipeline fault sweep (Points) leaves them out; the
// durability and incremental tests arm the ones they exercise by name.
const (
	DurableWrite      = "durable/write"      // before each WAL frame or snapshot write
	DurableFsync      = "durable/fsync"      // before each fsync (group commit and snapshot)
	DurableRename     = "durable/rename"     // before the snapshot temp → final rename
	DurableReplay     = "durable/replay"     // at the start of each dataset's boot replay
	IncrementalInsert = "incremental/insert" // inside InsertCtx's candidate scan and before commit
)

// Distributed-discovery hook points: a sharded discovery's remote runs.
// They fire only when step 1 has a remote run source, so they are swept
// by the server shard fault tests (ShardPoints), not the pipeline sweep.
const (
	ShardDispatch = "shard/dispatch" // before each shard is dispatched to a worker
	ShardStream   = "shard/stream"   // before a worker's run stream is adopted
	ShardMerge    = "shard/merge"    // before the final merge of a run with remote shards
)

// ShardPoints lists the distributed-discovery hook points, swept by the
// coordinator fault tests.
func ShardPoints() []string {
	return []string{ShardDispatch, ShardStream, ShardMerge}
}

// Points lists every pipeline hook point, for tests that sweep all of
// them through the miners.
func Points() []string {
	return []string{
		CorePartition, CoreAgree, CoreMaxSets, CoreLHS, CoreArmstrong,
		PoolTask, AgreeChunk, AgreeStride, HypergraphLevel,
		TANELevel, KeysLevel, INDLevel, FastFDsAttr,
		PstoreEvict, PstoreRecompute,
		ExtsortFlush, ExtsortRead, ExtsortMerge,
	}
}

var (
	// armed caches len(hooks) so Fire's fast path is one atomic load.
	armed atomic.Int32
	mu    sync.Mutex
	hooks = map[string]func() error{}
)

// Fire invokes the hook armed at point, if any. With no hooks armed it is
// a single atomic load. An armed hook may return an error (propagated as
// the phase's failure), panic (exercising the containment boundaries), or
// sleep (exercising deadlines) before returning nil.
func Fire(point string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	fn := hooks[point]
	mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// Set arms a hook at point. The hook may be called concurrently from
// worker goroutines and must be safe for that.
func Set(point string, fn func() error) {
	mu.Lock()
	defer mu.Unlock()
	hooks[point] = fn
	armed.Store(int32(len(hooks)))
}

// Clear disarms the hook at point.
func Clear(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(hooks, point)
	armed.Store(int32(len(hooks)))
}

// Reset disarms every hook. Tests defer it after arming anything.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	clear(hooks)
	armed.Store(0)
}

// FailWith returns a hook that injects err on every call.
func FailWith(err error) func() error {
	return func() error { return err }
}

// PanicWith returns a hook that panics with v on every call.
func PanicWith(v any) func() error {
	return func() error { panic(v) }
}

// Sleep returns a hook that delays for d and succeeds.
func Sleep(d time.Duration) func() error {
	return func() error { time.Sleep(d); return nil }
}

// After returns a hook that is a no-op for the first n calls and then
// delegates to fn — for injecting mid-run rather than at the first
// crossing of a point.
func After(n int, fn func() error) func() error {
	var calls atomic.Int64
	return func() error {
		if calls.Add(1) <= int64(n) {
			return nil
		}
		return fn()
	}
}
