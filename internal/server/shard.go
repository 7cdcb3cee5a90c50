// Distributed discovery: the coordinator/worker split of the agree-set
// phase (DESIGN.md §15).
//
// A coordinator-configured server answers ordinary POST /v1/discover
// requests for depminer/depminer2 by splitting the globally sorted
// deduplicated couple list into contiguous shards and dispatching them
// to worker depminerd instances over POST /v1/shard/agree. Datasets are
// addressed by content fingerprint, so a worker provably computes over
// the same bytes the coordinator planned against; each worker streams
// its shard's sorted deduplicated agree sets back as a DMRUN1 run
// (the spill-file format generalised to the wire), which the
// coordinator adopts into its spiller — CRC-verified, order-checked,
// budget-charged — and merges alongside any local runs. The canonical
// tail (one sort, one empty-set completion, steps 2–5) runs once on the
// coordinator, so the cover is byte-identical to single-node output at
// every shard count.
//
// The per-shard fallback ladder: transport retry/backoff (client
// policy) → push the dataset and dispatch once more (worker answered
// 404) → compute the shard locally under the coordinator's own budget.
// A failed or slow worker therefore degrades to local work under the
// governed-partial contract — couples are never silently dropped, and a
// stream that fails verification is discarded and recomputed, never
// merged.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/agree"
	"repro/internal/attrset"
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
// couple list it ever built.
const planCacheCap = 4

// coordinator is the fan-out side: one SDK client per configured worker
// endpoint, dispatched round-robin by shard index. Per-shard transport
// retry/backoff is the client package's ordinary policy.
type coordinator struct {
	endpoints []string
	clients   []*client.Client
}

func newCoordinator(endpoints []string) (*coordinator, error) {
	co := &coordinator{}
	for _, e := range endpoints {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !strings.Contains(e, "://") {
			e = "http://" + e
		}
		co.endpoints = append(co.endpoints, e)
		co.clients = append(co.clients, client.New(e,
			client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, BaseDelay: 25 * time.Millisecond})))
	}
	if len(co.endpoints) == 0 {
		return nil, fmt.Errorf("no usable worker endpoints")
	}
	return co, nil
}

// discSource is the input of one depminer discovery: the stripped
// partition database plus (when materialised or required) the relation,
// pinned to the fingerprint both were derived from.
type discSource struct {
	db       *partition.Database
	rel      *relation.Relation // nil when streamed from a snapshot
	fp       string
	names    []string
	streamed bool
}

// discoverySource builds the discovery input for d, preferring a
// streamed durable snapshot — no relation materialisation — when one
// fully covers the dataset and the request does not need the original
// values (needRelation: an Armstrong construction does). The snapshot's
// embedded fingerprint is re-verified against the registry after
// opening, so a compaction or append racing the check degrades to the
// materialised path, never to stale data. Either way the partition
// database is built here, once, and handed to the pipeline.
func (s *Server) discoverySource(d *dataset, needRelation bool) (*discSource, error) {
	if !needRelation {
		if src, ok := s.tryStreamSource(d); ok {
			return src, nil
		}
	}
	rel, fp, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	if s.testHookPartitionBuild != nil {
		s.testHookPartitionBuild()
	}
	return &discSource{db: partition.NewDatabase(rel), rel: rel, fp: fp, names: rel.Names()}, nil
}

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
		return nil, false
	}
	defer sr.Close()
	if sr.Fingerprint() != fp {
		return nil, false
	}
	db, err := partition.NewDatabaseFromSource(sr)
	if err != nil {
		return nil, false
	}
	s.stats.mu.Lock()
	s.stats.snapshotStreams++
	s.stats.mu.Unlock()
	return &discSource{db: db, fp: fp, names: append([]string(nil), sr.Names()...), streamed: true}, true
}

// coreOptions maps resolved request params onto pipeline options.
func (s *Server) coreOptions(p discoverParams, budget *guard.Budget) core.Options {
	opts := core.Options{
		Workers:       p.workers,
		MaxCouples:    p.maxCouples,
		Budget:        budget,
		Armstrong:     core.ArmstrongNone,
		MaxAgreeBytes: p.maxAgreeBytes,
		SpillDir:      s.cfg.SpillDir,
	}
	if p.algorithm == "depminer2" {
		opts.Algorithm = core.AgreeIdentifiers
	}
	if p.armstrong {
		opts.Armstrong = core.ArmstrongRealWorldOrSynthetic
	}
	return opts
}

// agreeOptions maps resolved params onto the options of one shard sweep.
func (s *Server) agreeOptions(p discoverParams, budget *guard.Budget) agree.Options {
	return agree.Options{
		Workers:       p.workers,
		Budget:        budget,
		MaxAgreeBytes: p.maxAgreeBytes,
		SpillDir:      s.cfg.SpillDir,
	}
}

// variantOf maps a depminer algorithm name onto its agree-set sweep.
func variantOf(algorithm string) agree.Variant {
	if algorithm == "depminer2" {
		return agree.VariantIdentifiers
	}
	return agree.VariantCouples
}

// runDepminer serves the depminer/depminer2 algorithms. The source build
// — a materialised relation or a streamed snapshot, partitioned once — is
// timed as the partition phase. A coordinator then replaces step 1 with
// the fan-out across its worker fleet; core.Run does the rest on every
// path, and depminerResponse builds the one response shape.
func (s *Server) runDepminer(ctx context.Context, d *dataset, p discoverParams, start time.Time, budget *guard.Budget) (*DiscoverResponse, error) {
	t0 := time.Now()
	src, err := s.discoverySource(d, p.armstrong)
	if err != nil {
		return nil, err
	}
	built := time.Since(t0)
	resp := &DiscoverResponse{
		Dataset:          d.id,
		Fingerprint:      src.fp,
		Algorithm:        p.algorithm,
		Rows:             src.db.NumRows,
		Attributes:       src.db.Arity(),
		SnapshotStreamed: src.streamed,
	}
	in := core.Input{Relation: src.rel, DB: src.db}
	var res *core.Result
	var runErr error
	var sharded time.Duration
	if s.coord != nil {
		t1 := time.Now()
		in.Agree, runErr = s.shardAgree(ctx, d, p, budget, src, resp)
		sharded = time.Since(t1)
		if runErr != nil && guard.Governed(runErr) {
			// Step 1 was cut short: report its counters, no cover.
			res = &core.Result{Partial: true, Couples: in.Agree.Couples, AgreeSets: in.Agree.Sets}
			res.Stats.Spill = in.Agree.Spill
		}
	}
	if runErr == nil {
		res, runErr = core.Run(ctx, in, s.coreOptions(p, budget))
	}
	if res != nil {
		res.Stats.Partition += built
		if in.Agree != nil {
			res.Stats.AgreeSets = sharded // the distributed sweep, coordinator clock
		}
	}
	return s.depminerResponse(ctx, resp, res, runErr, src.names, start, budget)
}

// depminerResponse completes resp from a depminer run — local or
// sharded, complete or partial — and folds the run's phase timings and
// spill traffic into the server stats. A nil res is an outright failure.
func (s *Server) depminerResponse(ctx context.Context, resp *DiscoverResponse, res *core.Result, runErr error, names []string, start time.Time, budget *guard.Budget) (*DiscoverResponse, error) {
	if res == nil {
		return nil, runErr
	}
	resp.Couples = res.Couples
	resp.AgreeSets = len(res.AgreeSets)
	resp.MaxSets = len(res.MaxSets)
	resp.Notes = append(resp.Notes, res.Notes...)
	if arm := res.Armstrong; arm != nil {
		resp.ArmstrongSynthetic = res.ArmstrongSynthetic
		resp.Armstrong = make([][]string, arm.Rows())
		for t := range resp.Armstrong {
			resp.Armstrong[t] = arm.Row(t)
		}
	}
	resp.SpilledRuns = res.Stats.Spill.RunsSpilled
	resp.SpilledBytes = res.Stats.Spill.SpilledBytes
	s.stats.mu.Lock()
	s.stats.addPhases(res.Stats)
	s.stats.spill.Add(res.Stats.Spill)
	s.stats.mu.Unlock()
	s.logPhases(ctx, res.Stats)
	return finishResponse(resp, res.FDs, res.Partial, runErr, names, start, budget)
}

// shardAgree is a coordinator's step 1: split the couple space, fan the
// shards out, adopt the returned runs, merge, and Finish into ag(r),
// recording the fan-out topology in resp. On a governed cutoff (budget,
// deadline) the returned Result still carries the counters reached so
// far. Nothing can make the family wrong: a stream that fails
// verification is discarded and its shard recomputed.
func (s *Server) shardAgree(ctx context.Context, d *dataset, p discoverParams, budget *guard.Budget, src *discSource, resp *DiscoverResponse) (*agree.Result, error) {
	// The coordinator plans through the same fingerprint-keyed cache the
	// workers use: replanning an unchanged dataset would re-sort the
	// whole couple space on every discovery for nothing. An append
	// changes the fingerprint, so a cached plan can never be stale.
	plan, err := s.plans.get(src.fp, func() (*agree.Plan, error) {
		return agree.NewPlan(src.db), nil
	})
	if err != nil {
		return nil, err
	}
	agr := &agree.Result{Couples: plan.Couples(), Chunks: 1}

	// The coordinator owns the Algorithm 2 → 3 degradation decision: made
	// once from the global couple count and dispatched uniformly, so no
	// shard can diverge — and the note matches single-node byte for byte.
	algo := p.algorithm
	if algo == "depminer" && p.maxCouples > 0 && plan.Couples() > p.maxCouples {
		algo = "depminer2"
		resp.Notes = append(resp.Notes, core.DegradeNote(plan.Couples(), p.maxCouples))
	}

	n := p.shards
	if n == 0 {
		n = s.cfg.DefaultShards
	}
	if n == 0 {
		n = len(s.coord.endpoints)
	}
	shards := plan.Split(min(n, maxShards))
	resp.Shards = len(shards)

	// Budget parity with the single-node sweep: the whole couple space is
	// charged once, up front, by whoever owns the discovery (workers
	// charge their own shard against their own budgets).
	if err := budget.Charge("agree", plan.Couples()); err != nil {
		return agr, err
	}

	sp := extsort.NewSpiller(s.cfg.SpillDir, budget)
	defer sp.Close()

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &shardRun{
		s: s, d: d, p: p, src: src, plan: plan,
		algo: algo, budget: budget, sp: sp, cancel: cancel,
	}
	defer run.flushStats()

	var wg sync.WaitGroup
	for i, sh := range shards {
		if sh.Start == sh.End {
			continue
		}
		wg.Add(1)
		go func(i int, sh agree.Shard) {
			defer wg.Done()
			run.runShard(dctx, i, sh)
		}(i, sh)
	}
	wg.Wait()
	resp.ShardsRemote = run.remote
	resp.ShardsLocal = run.local
	obs.Event(ctx, s.log, "shard fan-out done",
		obs.Int("shards", len(shards)),
		obs.Int("remote", run.remote),
		obs.Int("local", run.local),
		obs.Duration("dispatch", run.dispatchDur),
		obs.Duration("stream", run.streamDur))
	if run.firstErr != nil {
		return agr, run.firstErr
	}

	// Merge: adopted runs (on disk) and local-fallback runs (in memory)
	// feed one k-way dedup merge; Finish applies the canonical sort and
	// empty-set completion exactly once.
	mergeStart := time.Now()
	var merged attrset.Family
	mergeErr := faultinject.Fire(faultinject.ShardMerge)
	if mergeErr == nil {
		mergeErr = sp.Merge(run.localRuns, func(set attrset.Set) error {
			merged = append(merged, set)
			return nil
		})
	}
	agr.Spill = sp.Stats()
	agr.Spill.Add(run.spill)
	if mergeErr != nil {
		return agr, fmt.Errorf("shard merge: %w", mergeErr)
	}
	agr.Sets = plan.Finish(merged)
	run.mergeDur = time.Since(mergeStart)
	obs.Event(ctx, s.log, "shard merge done",
		obs.Int("sets", len(agr.Sets)),
		obs.Duration("merge", run.mergeDur))
	return agr, budget.Charge("agree", len(agr.Sets))
}

// shardRun is the mutable state of one fan-out.
type shardRun struct {
	s      *Server
	d      *dataset
	p      discoverParams
	src    *discSource
	plan   *agree.Plan
	algo   string // depminer or depminer2, after degradation
	budget *guard.Budget
	sp     *extsort.Spiller
	cancel context.CancelFunc

	csvOnce sync.Once
	csvData []byte
	csvErr  error

	mu        sync.Mutex
	localRuns [][]attrset.Set
	attempted int
	remote    int
	local     int
	spill     extsort.Stats // local-fallback shards' own spill activity
	firstErr  error

	pushed        int64
	receivedSets  int64
	receivedBytes int64
	dispatchDur   time.Duration
	streamDur     time.Duration
	mergeDur      time.Duration
}

// fail records the first fatal error and cancels sibling shards.
func (r *shardRun) fail(err error) {
	r.mu.Lock()
	first := r.firstErr == nil
	if first {
		r.firstErr = err
	}
	r.mu.Unlock()
	if first {
		r.cancel()
	}
}

func (r *shardRun) failed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstErr != nil
}

// runShard computes shard i: remotely if a worker can serve it, locally
// otherwise. Any remote failure — dispatch, mid-stream death, failed
// verification — falls back to the local sweep; only a local failure
// (or a shared-budget overrun) can fail the shard.
func (r *shardRun) runShard(ctx context.Context, i int, sh agree.Shard) {
	mode := "failed"
	span := obs.StartSpan(ctx, r.s.log, "shard",
		obs.Int("shard", i), obs.Int("couple_start", sh.Start), obs.Int("couple_end", sh.End))
	defer func() { span.End(obs.String("mode", mode)) }()
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	remoteErr := r.tryRemote(ctx, i, sh)
	if remoteErr == nil {
		r.mu.Lock()
		r.remote++
		r.mu.Unlock()
		mode = "remote"
		return
	}
	if guard.Governed(remoteErr) {
		// The budget is shared: adopting the stream overran it, so the
		// local fallback would only overrun further. Surface the
		// governed cutoff directly.
		r.fail(remoteErr)
		return
	}
	if ctx.Err() != nil && r.failed() {
		return // a sibling already failed the discovery
	}
	obs.Event(ctx, r.s.log, "shard falling back local",
		obs.Int("shard", i), obs.String("remote_error", remoteErr.Error()))
	r.computeLocal(ctx, sh, remoteErr)
	if !r.failed() {
		mode = "local"
	}
}

func (r *shardRun) tryRemote(ctx context.Context, i int, sh agree.Shard) error {
	if ferr := faultinject.Fire(faultinject.ShardDispatch); ferr != nil {
		return ferr
	}
	// Forward the discovery's request id on the dispatch (and on any
	// dataset push): the worker's middleware adopts it, so its log lines
	// join the coordinator's under one id.
	ctx = client.WithRequestID(ctx, obs.RequestID(ctx))
	cl := r.s.coord.clients[i%len(r.s.coord.clients)]
	req := wire.ShardRequest{
		Fingerprint:   r.src.fp,
		Algorithm:     r.algo,
		CoupleStart:   sh.Start,
		CoupleEnd:     sh.End,
		TotalCouples:  r.plan.Couples(),
		Workers:       r.p.workers,
		TimeoutMS:     int64(r.p.timeout / time.Millisecond),
		BudgetUnits:   r.p.units,
		MaxAgreeBytes: r.p.maxAgreeBytes,
	}
	t0 := time.Now()
	stream, err := cl.AgreeShard(ctx, req)
	if err != nil && errors.Is(err, client.ErrNotFound) {
		// This worker has never seen the dataset: push it through the
		// ordinary registration API (content-derived ids converge on
		// identical bytes) and dispatch once more.
		if perr := r.pushDataset(ctx, cl); perr != nil {
			return fmt.Errorf("pushing dataset: %w", perr)
		}
		stream, err = cl.AgreeShard(ctx, req)
	}
	if err != nil {
		return err
	}
	defer stream.Close()
	dispatchDur := time.Since(t0)
	if ferr := faultinject.Fire(faultinject.ShardStream); ferr != nil {
		return ferr
	}
	t1 := time.Now()
	cr := &countingReader{r: stream.Body}
	pr, err := r.sp.AdoptRun(cr, r.p.maxAgreeBytes)
	if err != nil {
		return err
	}
	if want, ok := stream.TrailerSets(); ok && want != pr.Sets() {
		pr.Discard()
		return fmt.Errorf("worker attested %d sets, stream carried %d", want, pr.Sets())
	}
	pr.Commit()
	streamDur := time.Since(t1)
	r.mu.Lock()
	r.receivedSets += pr.Sets()
	r.receivedBytes += cr.n
	r.dispatchDur += dispatchDur
	r.streamDur += streamDur
	r.mu.Unlock()
	return nil
}

// computeLocal is the last fallback rung: the shard's sweep under the
// coordinator's own budget. Its output joins the merge as an in-memory
// run, exactly like a worker-pool run of the single-node sweep.
func (r *shardRun) computeLocal(ctx context.Context, sh agree.Shard, cause error) {
	var out []attrset.Set
	res, err := r.plan.ComputeShard(ctx, sh, variantOf(r.algo), r.s.agreeOptions(r.p, r.budget), func(set attrset.Set) error {
		out = append(out, set)
		return nil
	})
	if res != nil {
		r.mu.Lock()
		r.spill.Add(res.Spill)
		r.mu.Unlock()
	}
	if err != nil {
		r.fail(fmt.Errorf("shard [%d,%d) local fallback (remote: %v): %w", sh.Start, sh.End, cause, err))
		return
	}
	r.mu.Lock()
	r.local++
	if len(out) > 0 {
		r.localRuns = append(r.localRuns, out)
	}
	r.mu.Unlock()
}

func (r *shardRun) pushDataset(ctx context.Context, cl *client.Client) error {
	csv, err := r.datasetCSV()
	if err != nil {
		return err
	}
	if _, err := cl.Register(ctx, r.d.info().Name, csv); err != nil {
		return err
	}
	r.mu.Lock()
	r.pushed++
	r.mu.Unlock()
	return nil
}

// datasetCSV materialises the relation once, for pushing to workers
// that have never seen it. This is the one place a streamed-snapshot
// discovery rehydrates rows — only on a cold fleet, never on the
// steady-state path.
func (r *shardRun) datasetCSV() ([]byte, error) {
	r.csvOnce.Do(func() {
		rel := r.src.rel
		if rel == nil {
			var err error
			rel, _, err = r.d.snapshot()
			if err != nil {
				r.csvErr = err
				return
			}
		}
		var buf bytes.Buffer
		if err := rel.WriteCSV(&buf); err != nil {
			r.csvErr = err
			return
		}
		r.csvData = buf.Bytes()
	})
	return r.csvData, r.csvErr
}

// flushStats folds the fan-out's counters into the server stats.
func (r *shardRun) flushStats() {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &r.s.stats
	st.mu.Lock()
	defer st.mu.Unlock()
	st.shard.dispatched += int64(r.attempted)
	st.shard.remote += int64(r.remote)
	st.shard.localFallbacks += int64(r.local)
	st.shard.datasetsPushed += r.pushed
	st.shard.receivedSets += r.receivedSets
	st.shard.receivedBytes += r.receivedBytes
	st.shard.dispatchTime += r.dispatchDur
	st.shard.streamTime += r.streamDur
	st.shard.mergeTime += r.mergeDur
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

func (c shardCounters) active() bool {
	return c.dispatched != 0 || c.served != 0 || c.servedErrors != 0
}

// errShardStale marks a fingerprint that matched at lookup but not at
// plan-build time — the dataset grew in between. The coordinator's
// reaction to the 409 is the local fallback.
var errShardStale = errors.New("dataset fingerprint changed")

// planCache caches shard plans by content fingerprint, with
// singleflight builds so concurrent shards of one discovery share one
// couple-list generation. FIFO eviction; stale fingerprints age out.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planEntry
	order   []string
}

type planEntry struct {
	once sync.Once
	plan *agree.Plan
	err  error
}

func newPlanCache(capEntries int) *planCache {
	return &planCache{cap: capEntries, entries: make(map[string]*planEntry)}
}

func (pc *planCache) get(fp string, build func() (*agree.Plan, error)) (*agree.Plan, error) {
	pc.mu.Lock()
	e, ok := pc.entries[fp]
	if !ok {
		e = &planEntry{}
		pc.entries[fp] = e
		pc.order = append(pc.order, fp)
		for pc.cap > 0 && len(pc.order) > pc.cap {
			delete(pc.entries, pc.order[0])
			pc.order = pc.order[1:]
		}
	}
	pc.mu.Unlock()
	e.once.Do(func() { e.plan, e.err = build() })
	return e.plan, e.err
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
	case req.CoupleStart < 0 || req.CoupleEnd < req.CoupleStart || req.CoupleEnd > req.TotalCouples:
		return p, errors.New("bad shard range")
	}
	return p, nil
}

// handleShardAgree implements POST /v1/shard/agree — the worker half of
// distributed discovery. The response is not JSON: it is a DMRUN1 run
// stream with the record count attested in an HTTP trailer. An error
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
		src, serr := s.discoverySource(d, false)
		if serr != nil {
			return nil, serr
		}
		if src.fp != req.Fingerprint {
			return nil, errShardStale
		}
		return agree.NewPlan(src.db), nil
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
	// A couple-count disagreement is a structural proof the two sides
	// planned against different bytes; refuse rather than compute a
	// range with a different meaning.
	if plan.Couples() != req.TotalCouples {
		s.noteShardServedError()
		writeError(w, http.StatusConflict,
			"couple count mismatch: worker has %d, coordinator planned %d", plan.Couples(), req.TotalCouples)
		return
	}

	// The worker charges its own shard's couples: the worker-side
	// analogue of the coordinator's single upfront charge.
	budget := guard.WithTimeout(p.timeout, p.units)
	if cerr := budget.Charge("agree", req.CoupleEnd-req.CoupleStart); cerr != nil {
		s.noteShardServedError()
		writeError(w, classifyStatus(cerr), "shard budget: %v", cerr)
		return
	}

	w.Header().Set("Content-Type", wire.RunContentType)
	w.Header().Set("Trailer", wire.ShardSetsTrailer)
	rw := extsort.NewRunWriter(w)
	res, cerr := plan.ComputeShard(r.Context(),
		agree.Shard{Start: req.CoupleStart, End: req.CoupleEnd},
		variantOf(p.algorithm), s.agreeOptions(p, budget), rw.Write)
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
	s.stats.mu.Lock()
	s.stats.shard.served++
	s.stats.shard.servedSets += res.Sets
	s.stats.mu.Unlock()
	// The context carries the coordinator's request id (adopted by the
	// middleware from the dispatch header), so this line joins the
	// coordinator's fan-out lines.
	obs.Event(r.Context(), s.log, "shard served",
		obs.String("fingerprint", req.Fingerprint),
		obs.Int("couple_start", req.CoupleStart),
		obs.Int("couple_end", req.CoupleEnd),
		obs.Int64("sets", res.Sets))
}
