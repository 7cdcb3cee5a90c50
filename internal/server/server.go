// Package server is the serving layer of the repository: a long-running
// HTTP (JSON) daemon — depminerd — that composes the discovery pipelines,
// the worker pool, resource governance, the memory-bounded TANE search,
// and the incremental maintenance engine into one process.
//
// It owns four pieces of state:
//
//   - a dataset registry: uploaded CSV relations, each wrapped in an
//     incremental discovery session and identified by a running content
//     fingerprint (registry.go);
//   - an admission-controlled job queue: a hard cap on concurrently
//     running discoveries, overflow rejected with 429 + Retry-After
//     instead of queued unboundedly (jobs.go);
//   - a result cache keyed by (dataset fingerprint, algorithm, options),
//     so repeated discovery of unchanged data is O(1) (cache.go);
//   - per-request guard budgets derived from request parameters clamped
//     by server-wide caps, so a single heavy query cannot monopolise the
//     process and overruns surface as partial results, not failures.
//
// Endpoints are versioned under /v1 (handlers.go). The operational
// surface (internal/obs, DESIGN.md §16): GET /healthz is pure liveness,
// GET /readyz readiness (503 while draining or durably degraded), GET
// /metrics the Prometheus exposition, GET /v1/version the build
// identity. Every handler runs under the obs middleware — request-id
// propagation, access logs, panic containment, per-request metrics.
// Shutdown drains: in-flight discoveries finish under their own budgets
// while new work is refused.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/extsort"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/pstore"
	"repro/internal/tane"
)

// Config bounds the server. The zero value is usable: every field has a
// production-safe default applied by New.
type Config struct {
	// MaxJobs caps concurrently running discoveries (sync and async
	// alike); requests beyond it are rejected with 429. Default 4.
	MaxJobs int
	// SyncRowLimit is the dataset size (rows) up to which POST
	// /v1/discover runs synchronously; larger datasets get an async job
	// and a 202. Default 5000.
	SyncRowLimit int
	// MaxTimeout caps (and defaults) the per-request deadline. Default
	// 2 minutes.
	MaxTimeout time.Duration
	// MaxBudgetUnits caps the per-request guard unit budget; 0 leaves
	// requests ungoverned by units unless they ask for a budget.
	MaxBudgetUnits int64
	// MaxBodyBytes caps request bodies (CSV uploads). Default 32 MiB.
	MaxBodyBytes int64
	// MaxDatasets caps the registry. Default 64.
	MaxDatasets int
	// CacheEntries caps the result cache. Default 128.
	CacheEntries int
	// RetryAfter is the delay hinted in the Retry-After header of 429
	// responses, rendered as RFC 9110 delta-seconds (rounded up, min 1).
	// Default 1s.
	RetryAfter time.Duration
	// Workers is the server's worker-pool width: it caps (and defaults)
	// the per-request workers, so a request may ask for fewer but never
	// more. 0 = all cores (GOMAXPROCS).
	Workers int
	// MaxAgreeBytes caps (and defaults) the per-request resident
	// agree-set bytes for depminer/depminer2/fastfds; past the cap,
	// sorted runs spill to SpillDir and are merged back streamingly. 0
	// leaves requests in-memory unless they ask for a cap.
	MaxAgreeBytes int64
	// SpillDir is where agree-set runs spill; empty = os.TempDir().
	SpillDir string
	// DataDir, when set, turns on durability: every registration and
	// append is written to a per-dataset WAL and fsync'd before the
	// server acknowledges it, snapshots fold the logs in the background,
	// and boot recovers the registry from disk. Empty = memory-only.
	DataDir string
	// DisableFsync acknowledges durable writes without waiting for
	// fsync — for tests and benchmarks only; a crash can then lose
	// acknowledged appends (never corrupt the recovered prefix).
	DisableFsync bool
	// SnapshotEvery is the WAL record count that triggers background
	// compaction into a snapshot. 0 = default (256); negative disables.
	SnapshotEvery int
	// WorkerEndpoints lists depminerd worker base URLs ("host:port" or
	// full URLs); non-empty makes this server a shard coordinator:
	// depminer/depminer2/fastfds discoveries split their agree-set phase
	// across the fleet (shard.go). Empty = single-node.
	WorkerEndpoints []string
	// Logger receives the server's structured logs (access lines, span
	// events, discovery outcomes). nil = silent, the right default for
	// tests and embedded use; depminerd wires os.Stderr through the
	// layered flag/env config (internal/obs).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4
	}
	if c.SyncRowLimit <= 0 {
		c.SyncRowLimit = 5000
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// maxJobRecords caps the retained finished async job records; past it the
// oldest are pruned.
const maxJobRecords = 256

// Server is the depminerd HTTP handler plus its state. Create with New;
// it is an http.Handler.
type Server struct {
	cfg   Config
	reg   *registry
	cache *resultCache
	jobs  *jobQueue
	mux   *http.ServeMux

	// log is the structured logger (never nil — obs.Nop() when
	// Config.Logger is unset). obsReg is the metrics registry serving
	// GET /metrics; handler is the mux wrapped in the obs middleware.
	log     *slog.Logger
	obsReg  *obs.Registry
	handler http.Handler

	// baseCtx parents async jobs, so a forced shutdown can cancel them.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // in-flight discoveries (sync and async)

	mu       sync.Mutex
	draining bool
	started  time.Time

	// store is the durability layer; nil when Config.DataDir is empty.
	// recovery is what boot found on disk, served under /v1/stats so
	// operators see quarantines without grepping the data directory.
	store    *durable.Store
	recovery *durable.Recovery

	// fleet holds one client per worker a coordinator fans shards out
	// to; nil unless Config.WorkerEndpoints is non-empty. plans caches
	// shard plans this server built as a worker, keyed by content
	// fingerprint.
	fleet []*client.Client
	plans *planCache

	stats discoveryStats

	// testHookJobStart, when set, runs while a discovery holds its
	// admission slot, before the pipeline starts — tests use it to pin
	// jobs in the running state deterministically.
	testHookJobStart func(datasetID string)
}

// New creates a server from the configuration (zero value fine). With
// DataDir set it opens the durable store and rebuilds the registry from
// disk before serving: recovered datasets are re-registered under their
// original ids, quarantined ones are reported in /v1/stats. The error is
// non-nil only for store-level failures (unreadable data dir, a restore
// that cannot rebuild a verified dataset) — per-dataset damage is
// quarantined, never fatal.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        newRegistry(cfg.MaxDatasets),
		cache:      newResultCache(cfg.CacheEntries),
		jobs:       newJobQueue(cfg.MaxJobs, maxJobRecords),
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		baseCancel: cancel,
		started:    time.Now(),
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = obs.Nop()
	}
	s.stats.phases = make(map[string]time.Duration)
	s.plans = newPlanCache(planCacheCap)
	if len(cfg.WorkerEndpoints) > 0 {
		fleet, err := newFleet(cfg.WorkerEndpoints)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.fleet = fleet
	}
	if cfg.DataDir != "" {
		store, rec, err := durable.Open(durable.Options{
			Dir:           cfg.DataDir,
			DisableFsync:  cfg.DisableFsync,
			SnapshotEvery: cfg.SnapshotEvery,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		s.store, s.recovery = store, rec
		for _, rd := range rec.Datasets {
			dur, ok := store.Dataset(rd.ID)
			if !ok {
				store.Close()
				cancel()
				return nil, fmt.Errorf("server: recovered dataset %s has no durable handle", rd.ID)
			}
			if err := s.reg.restore(rd, dur, s.started, cfg.Workers); err != nil {
				store.Close()
				cancel()
				return nil, fmt.Errorf("server: %w", err)
			}
		}
	}
	s.obsReg = obs.NewRegistry()
	obs.RegisterBuildInfo(s.obsReg, metricPrefix)
	s.registerStatsMetrics(s.obsReg)
	s.routes()
	s.handler = obs.Middleware(obs.MiddlewareConfig{
		Logger:  s.log,
		Metrics: obs.NewHTTPMetrics(s.obsReg, metricPrefix),
	}, s.mux)
	b := obs.Build()
	s.log.Info("server configured",
		slog.String("revision", b.Revision),
		slog.String("go_version", b.GoVersion),
		slog.Int("max_jobs", cfg.MaxJobs),
		slog.Bool("durable", s.store != nil),
		slog.Bool("coordinator", s.fleet != nil))
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegister)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /v1/datasets/{id}", s.handleGetDataset)
	s.mux.HandleFunc("POST /v1/datasets/{id}/rows", s.handleAppendRows)
	s.mux.HandleFunc("POST /v1/discover", s.handleDiscover)
	s.mux.HandleFunc("POST /v1/shard/agree", s.handleShardAgree)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", s.obsReg.Handler())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.handler.ServeHTTP(w, r)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: mutating endpoints start refusing with 503,
// then in-flight discoveries are awaited. If ctx expires first, async
// jobs are cancelled via their base context and Shutdown returns ctx's
// error. It reuses the signal contract of internal/cli: the caller passes
// a drain-deadline context created after the signal context fired.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
		s.baseCancel()
	case <-ctx.Done():
		s.baseCancel() // force: cancel in-flight async jobs
		<-done
		drainErr = fmt.Errorf("server: drain aborted: %w", ctx.Err())
	}
	// Final fold: snapshot every dataset so the next boot replays
	// nothing, then release the WAL handles. Run even on an aborted
	// drain — appends have stopped (mutating endpoints refuse), so the
	// fold is consistent.
	if s.store != nil {
		if err := s.store.CompactAll(); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("server: final snapshot: %w", err)
		}
		if err := s.store.Close(); err != nil && drainErr == nil {
			drainErr = fmt.Errorf("server: closing durable store: %w", err)
		}
	}
	return drainErr
}

// discoveryStats aggregates per-phase timings (from Result.Stats) and
// partition-store counters across every discovery the process ran.
type discoveryStats struct {
	mu     sync.Mutex
	counts DiscoveryStats // PhaseTotalMS is filled in from phases
	phases map[string]time.Duration
	pstore PstoreStats
	spill  extsort.Stats
	// shard aggregates distributed-discovery activity (shard.go).
	shard shardCounters
}

func (d *discoveryStats) addPhases(st core.Stats) {
	d.phases["partition"] += st.Partition
	d.phases["agree_sets"] += st.AgreeSets
	d.phases["max_sets"] += st.MaxSets
	d.phases["lhs"] += st.LHS
	d.phases["armstrong"] += st.Armstrong
}

// logPhases emits the per-discovery phase span event: Result.Stats
// timings as one structured debug line, joined to the request by the
// context's attribute set. Except for incremental runs, the same numbers
// accumulate into phase_seconds_total; this is the per-request view of
// them.
func (s *Server) logPhases(ctx context.Context, st core.Stats) {
	obs.Event(ctx, s.log, "discovery phases",
		slog.Duration("partition", st.Partition),
		slog.Duration("agree_sets", st.AgreeSets),
		slog.Duration("max_sets", st.MaxSets),
		slog.Duration("lhs", st.LHS),
		slog.Duration("armstrong", st.Armstrong))
}

func (d *discoveryStats) addPstore(st pstore.Stats) {
	d.pstore.Hits += st.Hits
	d.pstore.Misses += st.Misses
	d.pstore.Evictions += st.Evictions
	d.pstore.Recomputes += st.Recomputes
	if st.PeakBytes > d.pstore.PeakBytes {
		d.pstore.PeakBytes = st.PeakBytes
	}
}

// discoverParams is a resolved, clamped discovery request.
type discoverParams struct {
	algorithm         string
	workers           int
	epsilon           float64
	maxPartitionBytes int64
	maxAgreeBytes     int64
	armstrong         bool
	shards            int
	timeout           time.Duration
	units             int64
}

// algorithms the server accepts.
var algorithms = map[string]bool{
	"depminer":    true,
	"depminer2":   true,
	"fastfds":     true,
	"tane":        true,
	"incremental": true,
}

// resolveParams validates the request and clamps it under the server
// caps: the effective deadline is min(request, MaxTimeout), the unit
// budget min(request, MaxBudgetUnits), the resident agree bytes
// min(request, MaxAgreeBytes) and the workers min(request, server width),
// with the caps as defaults. Every discovery — and, through shardParams, every
// served shard — runs governed, so no request can exceed the server-wide
// ceiling.
func (s *Server) resolveParams(req *DiscoverRequest) (discoverParams, error) {
	p := discoverParams{
		algorithm:         strings.ToLower(strings.TrimSpace(req.Algorithm)),
		workers:           req.Workers,
		epsilon:           req.Epsilon,
		maxPartitionBytes: req.MaxPartitionBytes,
		maxAgreeBytes:     req.MaxAgreeBytes,
		armstrong:         req.Armstrong,
		shards:            req.Shards,
	}
	if p.algorithm == "" {
		p.algorithm = "depminer"
	}
	if !algorithms[p.algorithm] {
		names := make([]string, 0, len(algorithms))
		for a := range algorithms {
			names = append(names, a)
		}
		sort.Strings(names)
		return p, fmt.Errorf("unknown algorithm %q (have: %s)", req.Algorithm, strings.Join(names, ", "))
	}
	if p.workers < 0 || p.maxPartitionBytes < 0 || p.maxAgreeBytes < 0 || p.shards < 0 || req.TimeoutMS < 0 || req.BudgetUnits < 0 {
		return p, fmt.Errorf("negative knobs are invalid")
	}
	if p.epsilon < 0 || p.epsilon >= 1 {
		return p, fmt.Errorf("epsilon %v out of [0,1)", p.epsilon)
	}
	if p.epsilon > 0 && p.algorithm != "tane" {
		return p, fmt.Errorf("epsilon is a tane-only option")
	}
	if p.armstrong && p.algorithm == "tane" {
		return p, fmt.Errorf("armstrong is not a tane option: TANE builds no Armstrong relation")
	}
	if p.shards > 0 {
		if s.fleet == nil {
			return p, fmt.Errorf("shards is a coordinator-only option (no worker endpoints configured)")
		}
		if p.algorithm == "tane" || p.algorithm == "incremental" {
			return p, fmt.Errorf("shards is a depminer/depminer2/fastfds option")
		}
	}
	width := s.cfg.Workers
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p.workers = int(clampCap(int64(p.workers), int64(width)))
	p.timeout = s.cfg.MaxTimeout
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && t < p.timeout {
		p.timeout = t
	}
	p.units = clampCap(req.BudgetUnits, s.cfg.MaxBudgetUnits)
	p.maxAgreeBytes = clampCap(p.maxAgreeBytes, s.cfg.MaxAgreeBytes)
	return p, nil
}

// clampCap bounds a request value by a server cap that doubles as its
// default; a zero cap leaves the value as requested.
func clampCap(v, limit int64) int64 {
	if limit > 0 && (v == 0 || v > limit) {
		return limit
	}
	return v
}

// optionsKey canonically encodes the result-affecting options for the
// cache key. Workers, budgets, partition caps, spill thresholds, and
// shard topology (shard counts, worker endpoints) are excluded: the
// miners guarantee byte-identical covers for every value of those
// knobs, so one completed result answers them all — in particular a
// shard-computed cover answers later single-node requests and vice
// versa.
func (p discoverParams) optionsKey() string {
	return fmt.Sprintf("eps=%g|arm=%t", p.epsilon, p.armstrong)
}

// runDiscovery executes one admitted discovery on one of two miners:
// TANE over the source discoverySource opens, or the Dep-Miner family's
// core.Run. core.Run starts from the session's maintained ag(r) for
// incremental, and reads the opened source for every other miner.
// Governed overruns — budget, deadline, contained panic — return the
// partial response (Partial set, Error describing the cutoff) with a nil
// error, honouring the partial-result contract over the wire; hard
// failures return a nil response.
func (s *Server) runDiscovery(ctx context.Context, d *dataset, p discoverParams) (*DiscoverResponse, error) {
	start := time.Now()
	budget := guard.WithTimeout(p.timeout, p.units)

	if p.algorithm == "incremental" {
		res, info, runErr := d.discover(ctx, s.coreOptions(p, budget))
		resp := &DiscoverResponse{
			Dataset:     info.ID,
			Fingerprint: info.Fingerprint,
			Algorithm:   p.algorithm,
			Rows:        info.Rows,
			Attributes:  info.Attributes,
		}
		return s.depminerResponse(ctx, resp, res, runErr, info.Names, start, budget)
	}
	src, err := s.discoverySource(d)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	prepared := time.Since(start)
	if src.streamed() {
		s.stats.mu.Lock()
		s.stats.counts.SnapshotStreams++
		s.stats.mu.Unlock()
	}
	resp := &DiscoverResponse{
		Dataset:          d.id,
		Fingerprint:      src.fp,
		Algorithm:        p.algorithm,
		Rows:             src.Rows(),
		Attributes:       src.Arity(),
		SnapshotStreamed: src.streamed(),
	}
	if p.algorithm == "tane" {
		res, rerr := tane.Run(ctx, src.ColumnSource, tane.Options{
			Epsilon:           p.epsilon,
			Workers:           p.workers,
			MaxPartitionBytes: p.maxPartitionBytes,
			Budget:            budget,
		})
		if res == nil {
			return nil, rerr
		}
		resp.LatticeNodes = res.LatticeNodes
		s.stats.mu.Lock()
		s.stats.addPstore(res.Stats)
		s.stats.mu.Unlock()
		return finishResponse(resp, res.FDs, res.Partial, rerr, src.Names(), start, budget)
	}

	// Dep-Miner and FastFDs: core.Run over the opened source, which it
	// partitions once; preparing the source — capturing the store's
	// view, or opening and verifying the snapshot — is added to the
	// partition phase. A coordinator hands core.Run its fan-out as step 1's remote
	// run source.
	in := core.Input{Source: src.ColumnSource}
	var fan *fanOut
	if s.fleet != nil {
		fan = s.newFanOut(d, p, src)
		in.Remote = fan
	}
	res, runErr := core.Run(ctx, in, s.coreOptions(p, budget))
	if res != nil {
		res.Stats.Partition += prepared
	}
	if fan != nil {
		fan.record(ctx, resp, res)
	}
	return s.depminerResponse(ctx, resp, res, runErr, src.Names(), start, budget)
}

// finishResponse renders a discovery's cover into resp. A governed
// partial keeps the cover it reached and names the cutoff in resp.Error;
// any other error fails the discovery.
func finishResponse(resp *DiscoverResponse, cover fd.Cover, partial bool, runErr error, names []string, start time.Time, budget *guard.Budget) (*DiscoverResponse, error) {
	if runErr != nil && !partial {
		return nil, runErr
	}
	resp.FDs = renderCover(cover, names)
	resp.Partial = partial
	if runErr != nil {
		resp.Error = runErr.Error()
	}
	resp.BudgetUsed = budget.Used()
	resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}

// renderCover formats FDs with attribute names, one string per
// dependency, in the canonical order.
func renderCover(cover fd.Cover, names []string) []string {
	out := make([]string, len(cover))
	for i, f := range cover {
		out[i] = f.Names(names)
	}
	return out
}

// classifyStatus maps a discovery failure to an HTTP status.
func classifyStatus(err error) int {
	switch {
	case errors.Is(err, guard.ErrInvalidOptions):
		return http.StatusBadRequest
	case guard.Governed(err), errors.Is(err, context.DeadlineExceeded):
		// Governed but without a partial result to return.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
