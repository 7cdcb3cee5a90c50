package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/durable"
	"repro/internal/guard"
	"repro/internal/incremental"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/wire"
)

// The request/response shapes live in the public repro/wire package,
// shared with the client SDK (repro/client) so the two sides cannot
// drift. The aliases keep the server code and its tests reading
// naturally; they are the same types, not copies.
type (
	DatasetInfo      = wire.DatasetInfo
	DiscoverRequest  = wire.DiscoverRequest
	DiscoverResponse = wire.DiscoverResponse
	JobInfo          = wire.JobInfo
	RegisterResponse = wire.RegisterResponse
	AppendResponse   = wire.AppendResponse
	JobQueueStats    = wire.JobQueueStats
	CacheStats       = wire.CacheStats
	DiscoveryStats   = wire.DiscoveryStats
	PstoreStats      = wire.PstoreStats
	SpillStats       = wire.SpillStats
	StatsResponse    = wire.StatsResponse
)

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders d in the RFC 9110 delta-seconds form of
// Retry-After — a non-negative decimal integer — rounded up so a client
// honouring the hint never retries early, minimum 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// rejectDraining answers 503 on mutating endpoints once Shutdown began.
// The response carries Retry-After — a drain usually precedes a restart,
// so a client that waits and retries lands on the replacement process —
// and a JSON body naming the condition, so SDK clients surface
// "draining" rather than a bare status code.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if s.Draining() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return true
	}
	return false
}

// handleRegister implements POST /v1/datasets: the body is CSV (first
// record = attribute names unless ?header=false); ?name= labels the
// dataset. Identical content registers idempotently.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	header := true
	if v := r.URL.Query().Get("header"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad header param %q", v)
			return
		}
		header = b
	}
	st, err := relation.LoadStore(r.Body, header)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad CSV: %v", err)
		return
	}
	m, err := incremental.FromStore(r.Context(), st, s.cfg.Workers)
	if err != nil {
		writeError(w, classifyStatus(err), "building incremental session: %v", err)
		return
	}
	rel, err := m.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	name := r.URL.Query().Get("name")
	var create durableCreate
	if s.store != nil {
		create = func(id, fp string) (*durable.Dataset, error) {
			return s.store.Create(id, name, rel, fp)
		}
	}
	d, created, err := s.reg.register(name, rel, m, time.Now(), create)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, errRegistryFull):
			code = http.StatusInsufficientStorage
		case errors.Is(err, errDurability):
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "%v", err)
		return
	}
	code := http.StatusCreated
	if !created {
		code = http.StatusOK
	}
	writeJSON(w, code, RegisterResponse{DatasetInfo: d.info(), Existing: !created})
}

// handleListDatasets implements GET /v1/datasets.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.list())
}

// handleGetDataset implements GET /v1/datasets/{id}.
func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	d, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no dataset %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, d.info())
}

// handleAppendRows implements POST /v1/datasets/{id}/rows: the body is
// headerless CSV rows appended to the incremental session. Committed rows
// update ag(r) and the fingerprint in place — no full re-run — and the
// dataset's cache entries are invalidated.
func (s *Server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	d, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no dataset %q", r.PathValue("id"))
		return
	}
	cr := csv.NewReader(r.Body)
	cr.FieldsPerRecord = -1
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad CSV: %v", err)
			return
		}
		rows = append(rows, rec)
	}
	if len(rows) == 0 {
		writeError(w, http.StatusBadRequest, "no rows in request body")
		return
	}
	committed, fp, aerr := d.appendRows(r.Context(), rows)
	invalidated := 0
	if committed > 0 {
		invalidated = s.cache.invalidateDataset(d.id)
	}
	resp := AppendResponse{
		ID:          d.id,
		Appended:    committed,
		Rows:        d.info().Rows,
		Fingerprint: fp,
		Invalidated: invalidated,
	}
	if aerr != nil {
		resp.Error = aerr.Error()
		code := http.StatusBadRequest
		if errors.Is(aerr, guard.ErrDeadline) || errors.Is(aerr, errDurability) {
			// Not acknowledged: on a durability failure the committed
			// rows may not have reached disk, and the dataset is now
			// read-only until restart.
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDiscover implements POST /v1/discover. Cache hits answer
// immediately (even while draining) without consuming a job slot. Misses
// pass admission control: over the job cap the request is rejected with
// 429 + Retry-After. Admitted work runs synchronously for datasets up to
// SyncRowLimit rows and as an async job (202 + job id) above it; the
// request's async field overrides the threshold.
func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	var req DiscoverRequest
	if err := wire.DecodeStrict(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	d, ok := s.reg.get(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "no dataset %q", req.Dataset)
		return
	}
	p, err := s.resolveParams(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	info := d.info()
	// From here every log line this discovery produces — on this process
	// or on a worker serving one of its shards — carries the dataset,
	// fingerprint, and algorithm alongside the middleware's request id.
	ctx := obs.ContextWithAttrs(r.Context(),
		obs.String("dataset", d.id),
		obs.String("fingerprint", info.Fingerprint),
		obs.String("algorithm", p.algorithm))
	key := cacheKey{fingerprint: info.Fingerprint, algorithm: p.algorithm, options: p.optionsKey()}
	if resp, hit := s.cache.get(key); hit {
		out := *resp
		out.Cached = true
		obs.Event(ctx, s.log, "discovery cache hit")
		writeJSON(w, http.StatusOK, out)
		return
	}
	if s.rejectDraining(w) {
		return
	}
	if !s.jobs.tryAdmit() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusTooManyRequests,
			"job queue full: %d discoveries running (cap %d)", s.cfg.MaxJobs, s.cfg.MaxJobs)
		return
	}

	async := info.Rows > s.cfg.SyncRowLimit
	if req.Async != nil {
		async = *req.Async
	}
	if !async {
		s.wg.Add(1)
		defer s.wg.Done()
		defer s.jobs.release()
		if s.testHookJobStart != nil {
			s.testHookJobStart(d.id)
		}
		resp, rerr := s.runDiscovery(ctx, d, p)
		s.recordOutcome(resp, rerr, false)
		s.logOutcome(ctx, resp, rerr)
		if rerr != nil {
			writeError(w, classifyStatus(rerr), "discovery failed: %v", rerr)
			return
		}
		s.maybeCache(d.id, p, resp)
		writeJSON(w, http.StatusOK, resp)
		return
	}

	j := s.jobs.add(d.id, p.algorithm)
	// The job outlives this request, so it runs under the server's base
	// context — but carries the request's attribute set (request id
	// included) onto it, joining the job's log lines to the HTTP request
	// that submitted it.
	jctx := obs.ContextWithSet(s.baseCtx, obs.ContextAttrs(ctx).Merge(obs.String("job_id", j.id)))
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.jobs.release()
		if s.testHookJobStart != nil {
			s.testHookJobStart(d.id)
		}
		resp, rerr := s.runDiscovery(jctx, d, p)
		s.recordOutcome(resp, rerr, true)
		s.logOutcome(jctx, resp, rerr)
		if rerr != nil {
			j.finish(nil, rerr.Error())
			return
		}
		s.maybeCache(d.id, p, resp)
		j.finish(resp, "")
	}()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.info())
}

// logOutcome writes the one per-discovery summary line.
func (s *Server) logOutcome(ctx context.Context, resp *DiscoverResponse, err error) {
	log := obs.Logger(ctx, s.log)
	switch {
	case err != nil:
		log.Warn("discovery failed", slog.String("error", err.Error()))
	case resp != nil && resp.Partial:
		log.Warn("discovery partial",
			slog.String("cutoff", resp.Error),
			slog.Int("fds", len(resp.FDs)),
			slog.Float64("elapsed_ms", resp.ElapsedMS))
	case resp != nil:
		log.Info("discovery done",
			slog.Int("fds", len(resp.FDs)),
			slog.Int("shards", resp.Shards),
			slog.Bool("streamed", resp.SnapshotStreamed),
			slog.Float64("elapsed_ms", resp.ElapsedMS))
	}
}

// maybeCache stores complete (non-partial) results under the fingerprint
// they were actually computed from.
func (s *Server) maybeCache(datasetID string, p discoverParams, resp *DiscoverResponse) {
	if resp == nil || resp.Partial {
		return
	}
	key := cacheKey{fingerprint: resp.Fingerprint, algorithm: p.algorithm, options: p.optionsKey()}
	s.cache.put(datasetID, key, resp)
}

// recordOutcome bumps the discovery counters.
func (s *Server) recordOutcome(resp *DiscoverResponse, err error, async bool) {
	s.stats.mu.Lock()
	defer s.stats.mu.Unlock()
	c := &s.stats.counts
	c.Total++
	if async {
		c.Async++
	} else {
		c.Sync++
	}
	switch {
	case err != nil:
		c.Failed++
	case resp != nil && resp.Partial:
		c.Partial++
	}
}

// handleGetJob implements GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.info())
}

// handleStats implements GET /v1/stats as a plain JSON rendering of the
// same statsSnapshot the /metrics sampler scrapes (metrics.go) — the two
// endpoints cannot disagree because neither owns counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// handleVersion implements GET /v1/version: the running binary's build
// identity, so a fleet operator can confirm what revision each worker
// actually runs before chasing a behaviour difference.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.Build())
}

// handleHealthz implements GET /healthz: pure liveness. It answers 200
// for as long as the process can serve HTTP at all — including while
// draining, when the process is alive and finishing in-flight work.
// Routability questions belong to /readyz; an orchestrator that
// restarts on failing liveness probes would otherwise kill a cleanly
// draining process mid-drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz implements GET /readyz: readiness for new work. 503 (with
// Retry-After, so a waiting client lands on the replacement process)
// while draining, or while the durable layer holds sticky-broken
// datasets — a degraded store serves reads but refuses the writes a
// load balancer would route here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.store != nil {
		if n := s.store.Stats().Broken; n > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
			writeError(w, http.StatusServiceUnavailable,
				"durable store degraded: %d dataset(s) read-only until restart", n)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
