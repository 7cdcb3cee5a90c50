// Distributed discovery: the coordinator/worker split of the agree-set
// phase (DESIGN.md §15).
//
// A coordinator-configured server runs depminer/depminer2/fastfds
// discoveries through the same core.Run as a single node, with one difference: step
// 1's runs may come from elsewhere. fanOut is the agree.Remote that
// dispatches each shard — a block of tuples — to a worker depminerd over
// POST /v1/shard/agree. Datasets are addressed by content fingerprint, so
// a worker provably computes over the same bytes the coordinator planned
// against; each worker streams its shard's sorted deduplicated agree sets
// back as a DMRUN1 run (the spill-file format generalised to the wire)
// with the shard's couple count in a trailer, which fanOut adopts into
// the run's spiller — CRC-verified, order-checked, budget-charged.
// agree merges those runs with any local ones and core runs the
// canonical tail once, so the cover is byte-identical to single-node
// output at every shard count.
//
// The per-shard fallback ladder: transport retry/backoff (client
// policy) → push the dataset and dispatch once more (worker answered
// 404) → agree sweeps the shard locally under the coordinator's own
// budget. A failed or slow worker therefore degrades to local work under
// the governed-partial contract — couples are never silently dropped,
// and a stream that fails verification is discarded and recomputed,
// never merged.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/agree"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/extsort"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/wire"
)

// maxShards caps the fan-out of one coordinated discovery.
const maxShards = 64

// planCacheCap bounds retained shard plans per worker. Plans are keyed
// by content fingerprint, so an append orphans old entries naturally;
// the cap keeps a worker serving many datasets from pinning every
// couple space it ever built.
const planCacheCap = 4

// newFleet builds the coordinator's side of the fan-out: one SDK client
// per configured worker endpoint, dispatched round-robin by shard index.
// Per-shard transport retry/backoff is the client package's ordinary
// policy.
func newFleet(endpoints []string) ([]*client.Client, error) {
	var fleet []*client.Client
	for _, e := range endpoints {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !strings.Contains(e, "://") {
			e = "http://" + e
		}
		fleet = append(fleet, client.New(e,
			client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond})))
	}
	if len(fleet) == 0 {
		return nil, fmt.Errorf("no usable worker endpoints")
	}
	return fleet, nil
}

// discSource is the input of one batch discovery: the column source
// — a view of the dataset's store or a verified snapshot reader — pinned
// to the fingerprint it was derived from. Close releases a snapshot
// reader.
type discSource struct {
	partition.ColumnSource
	rel *relation.Relation // the view; nil when streamed from a snapshot
	fp  string
}

func (src *discSource) streamed() bool { return src.rel == nil }

func (src *discSource) Close() {
	if sr, ok := src.ColumnSource.(*durable.SnapshotReader); ok {
		sr.Close()
	}
}

// discoverySource opens the discovery input for d, preferring a streamed
// durable snapshot when one fully covers the dataset, and otherwise a
// view of the dataset's store. The snapshot's embedded fingerprint is
// re-verified against the registry after opening, so a compaction or
// append racing the check degrades to the view, never to stale data.
// The caller must Close the source.
func (s *Server) discoverySource(d *dataset) (*discSource, error) {
	if src, ok := s.tryStreamSource(d); ok {
		return src, nil
	}
	rel, fp, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	return &discSource{ColumnSource: rel, rel: rel, fp: fp}, nil
}

// tryStreamSource opens d's snapshot when it covers the dataset. Open
// verifies the CRC and every code, so a damaged snapshot fails here: it
// is logged and left to the view fallback. A fingerprint
// mismatch is a race with an append or compaction, not damage, and falls
// back silently.
func (s *Server) tryStreamSource(d *dataset) (*discSource, bool) {
	d.mu.Lock()
	dur := d.dur
	fp := d.fp
	d.mu.Unlock()
	if dur == nil {
		return nil, false
	}
	path, complete := dur.SnapshotInfo()
	if !complete {
		return nil, false
	}
	sr, err := durable.OpenSnapshotStream(path)
	if err != nil {
		s.log.Warn("snapshot unreadable, reading the resident store instead",
			slog.String("dataset", d.id), slog.String("path", path), slog.String("error", err.Error()))
		return nil, false
	}
	if sr.Fingerprint() != fp {
		sr.Close()
		return nil, false
	}
	return &discSource{ColumnSource: sr, fp: fp}, true
}

// coreOptions maps resolved request params onto pipeline options.
func (s *Server) coreOptions(p discoverParams, budget *guard.Budget) core.Options {
	opts := core.Options{
		Workers:       p.workers,
		Budget:        budget,
		Armstrong:     core.ArmstrongNone,
		MaxAgreeBytes: p.maxAgreeBytes,
		SpillDir:      s.cfg.SpillDir,
	}
	switch p.algorithm {
	case "depminer2":
		opts.Algorithm = core.AgreeIdentifiers
	case "fastfds":
		opts.Algorithm = core.FastFDs
	}
	if p.armstrong {
		opts.Armstrong = core.ArmstrongRealWorldOrSynthetic
	}
	return opts
}

// depminerResponse completes resp from a core.Run — local, sharded or
// incremental, complete or partial — and folds the run's phase timings
// and spill traffic into the server stats. A nil res is an outright
// failure.
func (s *Server) depminerResponse(ctx context.Context, resp *DiscoverResponse, res *core.Result, runErr error, names []string, start time.Time, budget *guard.Budget) (*DiscoverResponse, error) {
	if res == nil {
		return nil, runErr
	}
	resp.Couples = res.Couples
	resp.AgreeSets = len(res.AgreeSets)
	resp.MaxSets = len(res.MaxSets)
	resp.DFSNodes = res.DFSNodes
	if arm := res.Armstrong; arm != nil {
		resp.ArmstrongSynthetic = res.ArmstrongSynthetic
		resp.Armstrong = make([][]string, arm.Rows())
		for t := range resp.Armstrong {
			resp.Armstrong[t] = arm.Row(t)
		}
	}
	resp.SpilledRuns = res.Stats.Spill.RunsSpilled
	resp.SpilledBytes = res.Stats.Spill.SpilledBytes
	// An incremental run's phases stay out of the phase totals, which
	// account for the pipelines of discoveries that read the data.
	if resp.Algorithm != "incremental" {
		s.stats.mu.Lock()
		s.stats.addPhases(res.Stats)
		s.stats.spill.Add(res.Stats.Spill)
		s.stats.mu.Unlock()
	}
	s.logPhases(ctx, res.Stats)
	return finishResponse(resp, res.FDs, res.Partial, runErr, names, start, budget)
}

// fanOut is a coordinator's remote run source for one discovery
// (agree.Remote): Fetch dispatches a shard to a worker and adopts the
// returned stream. A failed fetch leaves the shard to agree's local
// sweep; fanOut only counts it.
type fanOut struct {
	s   *Server
	d   *dataset
	p   discoverParams
	src *discSource
	n   int // shards requested

	csvOnce sync.Once
	csvData []byte
	csvErr  error

	mu            sync.Mutex
	attempted     int
	remote        int
	local         int
	pushed        int64
	receivedSets  int64
	receivedBytes int64
	dispatchDur   time.Duration
	streamDur     time.Duration
}

func (s *Server) newFanOut(d *dataset, p discoverParams, src *discSource) *fanOut {
	n := p.shards
	if n == 0 {
		n = len(s.fleet)
	}
	return &fanOut{s: s, d: d, p: p, src: src, n: min(n, maxShards)}
}

// Shards implements agree.Remote.
func (f *fanOut) Shards() int { return f.n }

// Fetch implements agree.Remote: shard i goes to worker i mod fleet
// size. A non-governed failure hands the shard to the local sweep.
func (f *fanOut) Fetch(ctx context.Context, i int, sh agree.Shard, v agree.Variant, sp *extsort.Spiller) (int, error) {
	span := obs.StartSpan(ctx, f.s.log, "shard",
		slog.Int("shard", i), slog.Int("tuple_start", sh.Start), slog.Int("tuple_end", sh.End))
	couples, err := f.tryRemote(ctx, i, sh, v, sp)
	mode := "remote"
	f.mu.Lock()
	f.attempted++
	switch {
	case err == nil:
		f.remote++
	case guard.Governed(err) || ctx.Err() != nil:
		mode = "failed"
	default:
		f.local++
		mode = "local"
	}
	f.mu.Unlock()
	if mode == "local" {
		obs.Event(ctx, f.s.log, "shard falling back local",
			slog.Int("shard", i), slog.String("remote_error", err.Error()))
	}
	span.End(slog.String("mode", mode))
	return couples, err
}

func (f *fanOut) tryRemote(ctx context.Context, i int, sh agree.Shard, v agree.Variant, sp *extsort.Spiller) (int, error) {
	if ferr := faultinject.Fire(faultinject.ShardDispatch); ferr != nil {
		return 0, ferr
	}
	// Forward the discovery's request id on the dispatch (and on any
	// dataset push): the worker's middleware adopts it, so its log lines
	// join the coordinator's under one id.
	ctx = client.WithRequestID(ctx, obs.RequestID(ctx))
	cl := f.s.fleet[i%len(f.s.fleet)]
	algo := "depminer"
	if v == agree.VariantIdentifiers {
		algo = "depminer2"
	}
	req := wire.ShardRequest{
		Fingerprint:   f.src.fp,
		Algorithm:     algo,
		TupleStart:    sh.Start,
		TupleEnd:      sh.End,
		Workers:       f.p.workers,
		TimeoutMS:     int64(f.p.timeout / time.Millisecond),
		BudgetUnits:   f.p.units,
		MaxAgreeBytes: f.p.maxAgreeBytes,
	}
	t0 := time.Now()
	stream, err := cl.AgreeShard(ctx, req)
	if err != nil && errors.Is(err, client.ErrNotFound) {
		// This worker has never seen the dataset: push it through the
		// ordinary registration API (content-derived ids converge on
		// identical bytes) and dispatch once more.
		if perr := f.pushDataset(ctx, cl); perr != nil {
			return 0, fmt.Errorf("pushing dataset: %w", perr)
		}
		stream, err = cl.AgreeShard(ctx, req)
	}
	if err != nil {
		return 0, err
	}
	defer stream.Close()
	dispatchDur := time.Since(t0)
	if ferr := faultinject.Fire(faultinject.ShardStream); ferr != nil {
		return 0, ferr
	}
	t1 := time.Now()
	cr := &countingReader{r: stream.Body}
	pr, err := sp.AdoptRun(cr, f.p.maxAgreeBytes)
	if err != nil {
		return 0, err
	}
	if want, ok := stream.TrailerSets(); ok && want != pr.Sets() {
		pr.Discard()
		return 0, fmt.Errorf("worker attested %d sets, stream carried %d", want, pr.Sets())
	}
	couples, ok := stream.TrailerCouples()
	if !ok {
		pr.Discard()
		return 0, errors.New("worker attested no couple count")
	}
	pr.Commit()
	streamDur := time.Since(t1)
	f.mu.Lock()
	f.receivedSets += pr.Sets()
	f.receivedBytes += cr.n
	f.dispatchDur += dispatchDur
	f.streamDur += streamDur
	f.mu.Unlock()
	return int(couples), nil
}

func (f *fanOut) pushDataset(ctx context.Context, cl *client.Client) error {
	csv, err := f.datasetCSV()
	if err != nil {
		return err
	}
	if _, err := cl.Register(ctx, f.d.info().Name, csv); err != nil {
		return err
	}
	f.mu.Lock()
	f.pushed++
	f.mu.Unlock()
	return nil
}

// datasetCSV serialises the relation once, for pushing to workers that
// have never seen it. This is the one place a streamed-snapshot
// discovery reads the resident rows — only on a cold fleet, never on the
// steady-state path. Rows appended since planning would push content the
// coordinator never planned against, so a fingerprint mismatch fails the
// push and leaves the shard to the local sweep.
func (f *fanOut) datasetCSV() ([]byte, error) {
	f.csvOnce.Do(func() {
		rel := f.src.rel
		if rel == nil {
			var fp string
			var err error
			if rel, fp, err = f.d.snapshot(); err != nil {
				f.csvErr = err
				return
			}
			if fp != f.src.fp {
				f.csvErr = errShardStale
				return
			}
		}
		var buf bytes.Buffer
		if err := rel.WriteCSV(&buf); err != nil {
			f.csvErr = err
			return
		}
		f.csvData = buf.Bytes()
	})
	return f.csvData, f.csvErr
}

// record folds the finished fan-out into resp and the server stats. The
// merge time is agree's, reported back through the run's stats.
func (f *fanOut) record(ctx context.Context, resp *DiscoverResponse, res *core.Result) {
	var merge time.Duration
	if res != nil {
		merge = res.Stats.AgreeMerge
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	resp.Shards, resp.ShardsRemote, resp.ShardsLocal = f.attempted, f.remote, f.local
	obs.Event(ctx, f.s.log, "shard fan-out done",
		slog.Int("shards", f.attempted),
		slog.Int("remote", f.remote),
		slog.Int("local", f.local),
		slog.Duration("dispatch", f.dispatchDur),
		slog.Duration("stream", f.streamDur),
		slog.Duration("merge", merge))
	st := &f.s.stats
	st.mu.Lock()
	defer st.mu.Unlock()
	st.shard.dispatched += int64(f.attempted)
	st.shard.remote += int64(f.remote)
	st.shard.localFallbacks += int64(f.local)
	st.shard.datasetsPushed += f.pushed
	st.shard.receivedSets += f.receivedSets
	st.shard.receivedBytes += f.receivedBytes
	st.shard.dispatchTime += f.dispatchDur
	st.shard.streamTime += f.streamDur
	st.shard.mergeTime += merge
}

// countingReader counts stream bytes for the fan-out stats.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// shardCounters aggregates distributed-discovery activity, guarded by
// discoveryStats.mu. Coordinator counters cover fan-out, worker
// counters cover shard serving; one process can be both.
type shardCounters struct {
	dispatched     int64
	remote         int64
	localFallbacks int64
	datasetsPushed int64
	receivedSets   int64
	receivedBytes  int64
	dispatchTime   time.Duration
	streamTime     time.Duration
	mergeTime      time.Duration
	served         int64
	servedSets     int64
	servedErrors   int64
}

// errShardStale marks a fingerprint that matched at lookup but not at
// plan-build time — the dataset grew in between. The coordinator's
// reaction to the 409 is the local fallback.
var errShardStale = errors.New("dataset fingerprint changed")

// errBadShardRange rejects a shard request whose tuple range is
// inverted, negative, or past the dataset's tuples.
var errBadShardRange = errors.New("bad shard range")

// planCache caches the plans a worker serves shards from, by content
// fingerprint, with singleflight builds so concurrent shards of one
// discovery share one couple-space build. FIFO eviction; stale
// fingerprints age out. A failed build is not kept: its waiters share
// the error, and the next request builds afresh.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	order   []string
}

// planEntry is one fingerprint's build, shared by everyone who asks
// while it is cached.
type planEntry struct {
	build func() (*agree.Plan, error)
}

func newPlanCache(capEntries int) *planCache {
	return &planCache{cap: capEntries, entries: make(map[string]*planEntry)}
}

func (pc *planCache) get(fp string, build func() (*agree.Plan, error)) (*agree.Plan, error) {
	pc.mu.Lock()
	e, ok := pc.entries[fp]
	if !ok {
		e = &planEntry{build: sync.OnceValues(build)}
		pc.entries[fp] = e
		pc.order = append(pc.order, fp)
		for pc.cap > 0 && len(pc.order) > pc.cap {
			delete(pc.entries, pc.order[0])
			pc.order = pc.order[1:]
		}
	}
	pc.mu.Unlock()
	plan, err := e.build()
	if err != nil {
		pc.mu.Lock()
		if pc.entries[fp] == e {
			delete(pc.entries, fp)
			pc.order = slices.DeleteFunc(pc.order, func(k string) bool { return k == fp })
		}
		pc.mu.Unlock()
	}
	return plan, err
}

func (s *Server) noteShardServedError() {
	s.stats.mu.Lock()
	s.stats.shard.servedErrors++
	s.stats.mu.Unlock()
}

// shardParams validates a shard request and resolves its knobs through
// resolveParams, so a worker governs its shard under exactly the clamps
// a discovery gets.
func (s *Server) shardParams(req *wire.ShardRequest) (discoverParams, error) {
	p, err := s.resolveParams(&DiscoverRequest{
		Algorithm:     req.Algorithm,
		Workers:       req.Workers,
		TimeoutMS:     req.TimeoutMS,
		BudgetUnits:   req.BudgetUnits,
		MaxAgreeBytes: req.MaxAgreeBytes,
	})
	switch {
	case err != nil:
		return p, err
	case p.algorithm != "depminer" && p.algorithm != "depminer2":
		return p, fmt.Errorf("algorithm %q cannot be sharded", req.Algorithm)
	case req.Fingerprint == "":
		return p, errors.New("missing fingerprint")
	case req.TupleStart < 0 || req.TupleEnd < req.TupleStart:
		return p, errBadShardRange
	}
	return p, nil
}

// handleShardAgree implements POST /v1/shard/agree — the worker half of
// distributed discovery. The response is not JSON: it is a DMRUN1 run
// stream with the record count and the shard's couple count attested
// in HTTP trailers. An error
// after the first streamed byte aborts the connection
// (http.ErrAbortHandler) rather than fabricating a valid-looking tail;
// the coordinator's CRC, order, and trailer checks make any truncation
// non-silent either way.
func (s *Server) handleShardAgree(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var req wire.ShardRequest
	if err := wire.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	p, err := s.shardParams(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d, ok := s.reg.findByFingerprint(req.Fingerprint)
	if !ok {
		writeError(w, http.StatusNotFound, "no dataset with fingerprint %s", req.Fingerprint)
		return
	}
	if !s.jobs.tryAdmit() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusTooManyRequests,
			"job queue full: %d discoveries running (cap %d)", s.cfg.MaxJobs, s.cfg.MaxJobs)
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	defer s.jobs.release()

	plan, err := s.plans.get(req.Fingerprint, func() (*agree.Plan, error) {
		src, serr := s.discoverySource(d)
		if serr != nil {
			return nil, serr
		}
		defer src.Close()
		if src.fp != req.Fingerprint {
			return nil, errShardStale
		}
		// The plan is shared by every shard of this fingerprint, so no
		// one request's cancellation may fail its build.
		ctx := context.WithoutCancel(r.Context())
		db, derr := partition.NewDatabaseFromSource(ctx, src, p.workers)
		if derr != nil {
			return nil, derr
		}
		return agree.NewPlan(ctx, db, p.workers)
	})
	if err != nil {
		s.noteShardServedError()
		if errors.Is(err, errShardStale) {
			writeError(w, http.StatusConflict, "dataset content changed since the coordinator planned")
			return
		}
		writeError(w, classifyStatus(err), "building shard plan: %v", err)
		return
	}
	if req.TupleEnd > plan.Rows() {
		s.noteShardServedError()
		writeError(w, http.StatusBadRequest, "%v: the dataset has %d tuples", errBadShardRange, plan.Rows())
		return
	}

	// The sweep charges the shard's couples to the worker's own budget,
	// as a local sweep of the same tuples would.
	budget := guard.WithTimeout(p.timeout, p.units)
	w.Header().Set("Content-Type", wire.RunContentType)
	w.Header().Set("Trailer", wire.ShardSetsTrailer+", "+wire.ShardCouplesTrailer)
	rw := extsort.NewRunWriter(w)
	v := agree.VariantCouples
	if p.algorithm == "depminer2" {
		v = agree.VariantIdentifiers
	}
	aopts := agree.Options{Workers: p.workers, Budget: budget, MaxAgreeBytes: p.maxAgreeBytes, SpillDir: s.cfg.SpillDir}
	res, cerr := plan.ComputeShard(r.Context(), agree.Shard{Start: req.TupleStart, End: req.TupleEnd}, v, aopts, rw.Write)
	if cerr == nil {
		cerr = rw.Close()
	}
	if res != nil {
		s.stats.mu.Lock()
		s.stats.spill.Add(res.Spill)
		s.stats.mu.Unlock()
	}
	if cerr != nil {
		s.noteShardServedError()
		if !rw.Started() {
			writeError(w, classifyStatus(cerr), "shard failed: %v", cerr)
			return
		}
		// Mid-stream failure: kill the connection rather than let a
		// truncated stream end with a clean-looking terminal chunk.
		panic(http.ErrAbortHandler)
	}
	w.Header().Set(wire.ShardSetsTrailer, strconv.FormatInt(res.Sets, 10))
	w.Header().Set(wire.ShardCouplesTrailer, strconv.Itoa(res.Couples))
	s.stats.mu.Lock()
	s.stats.shard.served++
	s.stats.shard.servedSets += res.Sets
	s.stats.mu.Unlock()
	// The context carries the coordinator's request id (adopted by the
	// middleware from the dispatch header), so this line joins the
	// coordinator's fan-out lines.
	obs.Event(r.Context(), s.log, "shard served",
		slog.String("fingerprint", req.Fingerprint),
		slog.Int("tuple_start", req.TupleStart),
		slog.Int("tuple_end", req.TupleEnd),
		slog.Int("couples", res.Couples),
		slog.Int64("sets", res.Sets))
}
