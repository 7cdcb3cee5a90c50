package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/wire"
)

// newTestServer wires a Server into an httptest server, returning both so
// tests can reach white-box state (hooks, counters) and the wire at once.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func relationCSV(t *testing.T, r *relation.Relation) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// postJSON posts v as JSON and decodes the response into out (if non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decode(t, resp.Body, out)
	return resp.StatusCode
}

func postCSV(t *testing.T, url, csvBody string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decode(t, resp.Body, out)
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	decode(t, resp.Body, out)
	return resp.StatusCode
}

func decode(t *testing.T, r io.Reader, out any) {
	t.Helper()
	if out == nil {
		io.Copy(io.Discard, r)
		return
	}
	if err := json.NewDecoder(r).Decode(out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

func register(t *testing.T, ts *httptest.Server, r *relation.Relation) RegisterResponse {
	t.Helper()
	var reg RegisterResponse
	code := postCSV(t, ts.URL+"/v1/datasets", relationCSV(t, r), &reg)
	if code != http.StatusCreated {
		t.Fatalf("register status = %d", code)
	}
	return reg
}

// fromScratchCover runs the reference pipeline directly and renders the
// cover exactly as the server does.
func fromScratchCover(t *testing.T, r *relation.Relation) []string {
	t.Helper()
	res, err := core.Discover(context.Background(), r, core.Options{Armstrong: core.ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	return renderCover(res.FDs, r.Names())
}

func sameCover(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEndToEnd is the satellite's register → discover → append →
// re-discover loop: the cached path must short-circuit the pipeline, and
// the incremental cover after appends must be byte-identical to a
// from-scratch core run on the grown relation.
func TestEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	if reg.Rows != base.Rows() || reg.Attributes != base.Arity() {
		t.Fatalf("registered shape %dx%d, want %dx%d", reg.Rows, reg.Attributes, base.Rows(), base.Arity())
	}

	// Cold discovery matches the reference pipeline.
	var first DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &first); code != http.StatusOK {
		t.Fatalf("discover status = %d", code)
	}
	if first.Cached {
		t.Fatal("first discovery reported cached")
	}
	want := fromScratchCover(t, base)
	if !sameCover(first.FDs, want) {
		t.Fatalf("cold cover = %v, want %v", first.FDs, want)
	}

	// Repeat discovery is served from the cache: hit counter increments
	// and no additional discovery is recorded.
	before := s.cache.stats()
	var second DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &second); code != http.StatusOK {
		t.Fatalf("re-discover status = %d", code)
	}
	if !second.Cached {
		t.Fatal("repeat discovery not served from cache")
	}
	if !sameCover(second.FDs, first.FDs) {
		t.Fatal("cached cover differs from computed cover")
	}
	after := s.cache.stats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("cache hits %d → %d, want +1", before.Hits, after.Hits)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Discoveries.Total != 1 {
		t.Fatalf("discoveries.total = %d after a cache hit, want 1 (pipeline must not re-run)", st.Discoveries.Total)
	}

	// Append rows: the session grows in place, the fingerprint moves,
	// and the dataset's cache entries are invalidated.
	extra := [][]string{
		{"40", "Lille", "2", "1994", "30"},
		{"41", "Lyon", "9", "1995", "31"},
		{"42", "Paris", "2", "1994", "30"},
	}
	var rows bytes.Buffer
	for _, row := range extra {
		rows.WriteString(strings.Join(row, ",") + "\n")
	}
	var app AppendResponse
	if code := postCSV(t, ts.URL+"/v1/datasets/"+reg.ID+"/rows", rows.String(), &app); code != http.StatusOK {
		t.Fatalf("append status = %d", code)
	}
	if app.Appended != len(extra) || app.Rows != base.Rows()+len(extra) {
		t.Fatalf("append = %+v", app)
	}
	if app.Fingerprint == reg.Fingerprint {
		t.Fatal("fingerprint unchanged after append")
	}
	if app.Invalidated == 0 {
		t.Fatal("append invalidated no cache entries")
	}

	// The incremental re-derivation (no re-scan) must be byte-identical
	// to a from-scratch run over the grown relation.
	grownRows := make([][]string, 0, base.Rows()+len(extra))
	for i := 0; i < base.Rows(); i++ {
		grownRows = append(grownRows, base.Row(i))
	}
	grownRows = append(grownRows, extra...)
	grown, err := relation.FromRows(base.Names(), grownRows)
	if err != nil {
		t.Fatal(err)
	}
	wantGrown := fromScratchCover(t, grown)

	var inc DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Algorithm: "incremental"}, &inc); code != http.StatusOK {
		t.Fatalf("incremental discover status = %d", code)
	}
	if inc.Cached {
		t.Fatal("post-append discovery served stale cache")
	}
	if !sameCover(inc.FDs, wantGrown) {
		t.Fatalf("incremental cover = %v, want from-scratch %v", inc.FDs, wantGrown)
	}
	if inc.Fingerprint != app.Fingerprint {
		t.Fatalf("incremental fingerprint = %s, want %s", inc.Fingerprint, app.Fingerprint)
	}

	// A full re-run over the wire agrees too.
	var fresh DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &fresh); code != http.StatusOK {
		t.Fatalf("fresh discover status = %d", code)
	}
	if fresh.Cached {
		t.Fatal("post-append depminer discovery served stale cache")
	}
	if !sameCover(fresh.FDs, wantGrown) {
		t.Fatalf("fresh cover = %v, want %v", fresh.FDs, wantGrown)
	}
}

// TestAlgorithmsAgree runs every algorithm over the wire on the same
// dataset and expects the same cover (tane at ε=0 and fastfds mine the
// same minimal cover as the Dep-Miner pipeline).
func TestAlgorithmsAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := datagen.Generate(datagen.Spec{Attrs: 6, Rows: 120, Correlation: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, ts, r)
	want := fromScratchCover(t, r)
	for _, algo := range []string{"depminer", "depminer2", "fastfds", "tane", "incremental"} {
		var resp DiscoverResponse
		if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Algorithm: algo}, &resp); code != http.StatusOK {
			t.Fatalf("%s: status = %d", algo, code)
		}
		if resp.Cached {
			t.Fatalf("%s: unexpectedly cached (distinct algorithms must not share keys)", algo)
		}
		if !sameCover(resp.FDs, want) {
			t.Fatalf("%s: cover = %v, want %v", algo, resp.FDs, want)
		}
	}
}

func TestRegisterIdempotent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csvBody := relationCSV(t, relation.PaperExample())
	var first RegisterResponse
	if code := postCSV(t, ts.URL+"/v1/datasets", csvBody, &first); code != http.StatusCreated {
		t.Fatalf("first register status = %d", code)
	}
	var second RegisterResponse
	if code := postCSV(t, ts.URL+"/v1/datasets", csvBody, &second); code != http.StatusOK {
		t.Fatalf("second register status = %d", code)
	}
	if !second.Existing || second.ID != first.ID {
		t.Fatalf("re-registration = %+v, want existing id %s", second, first.ID)
	}
}

func TestSyncAsyncThreshold(t *testing.T) {
	_, ts := newTestServer(t, Config{SyncRowLimit: 5})
	r, err := datagen.Generate(datagen.Spec{Attrs: 4, Rows: 50, Correlation: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, ts, r)

	// Over the threshold: async job, 202, poll to completion.
	var j JobInfo
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &j); code != http.StatusAccepted {
		t.Fatalf("async discover status = %d", code)
	}
	if j.ID == "" || j.State == "" {
		t.Fatalf("job info = %+v", j)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+j.ID, &j); code != http.StatusOK {
			t.Fatalf("job poll status = %d", code)
		}
		if j.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if j.State != JobDone || j.Result == nil {
		t.Fatalf("job = %+v", j)
	}
	if !sameCover(j.Result.FDs, fromScratchCover(t, r)) {
		t.Fatal("async job cover differs from reference")
	}

	// Async override forces the small dataset through the job path.
	force := true
	var j2 JobInfo
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Algorithm: "fastfds", Async: &force}, &j2); code != http.StatusAccepted {
		t.Fatalf("forced-async status = %d", code)
	}
}

func TestBudgetOverrunReturnsPartial(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := datagen.Generate(datagen.Spec{Attrs: 8, Rows: 400, Correlation: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, ts, r)
	var resp DiscoverResponse
	code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, BudgetUnits: 1}, &resp)
	if code != http.StatusOK {
		t.Fatalf("governed discover status = %d", code)
	}
	if !resp.Partial || resp.Error == "" {
		t.Fatalf("1-unit budget: partial = %v error = %q, want partial with error", resp.Partial, resp.Error)
	}

	// Partial results must not poison the cache: an ungoverned run still
	// computes (and then caches) the full cover.
	var full DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &full); code != http.StatusOK {
		t.Fatalf("full discover status = %d", code)
	}
	if full.Cached || full.Partial {
		t.Fatalf("full run after partial: cached=%v partial=%v", full.Cached, full.Partial)
	}
	if !sameCover(full.FDs, fromScratchCover(t, r)) {
		t.Fatal("full cover differs from reference")
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reg := register(t, ts, relation.PaperExample())

	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: "nope"}, nil); code != http.StatusNotFound {
		t.Errorf("unknown dataset: status = %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Algorithm: "quantum"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown algorithm: status = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Epsilon: 0.1}, nil); code != http.StatusBadRequest {
		t.Errorf("epsilon on depminer: status = %d, want 400", code)
	}
	for _, algo := range []string{"tane", "incremental"} {
		if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Algorithm: algo, Armstrong: true}, nil); code != http.StatusBadRequest {
			t.Errorf("armstrong on %s: status = %d, want 400", algo, code)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", code)
	}
	if code := postCSV(t, ts.URL+"/v1/datasets/"+reg.ID+"/rows", "only,two\n", nil); code != http.StatusBadRequest {
		t.Errorf("bad arity append: status = %d, want 400", code)
	}
	if code := postCSV(t, ts.URL+"/v1/datasets", "", nil); code != http.StatusBadRequest {
		t.Errorf("empty register: status = %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/datasets/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown dataset info: status = %d, want 404", code)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	reg := register(t, ts, relation.PaperExample())
	// Warm the cache before draining.
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, nil); code != http.StatusOK {
		t.Fatalf("warm discover status = %d", code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Liveness stays green during a drain — the process is alive and
	// finishing work; only readiness flips.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz while draining: status = %d, want 200 (liveness)", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status = %d, want 503", code)
	}
	if code := postCSV(t, ts.URL+"/v1/datasets", relationCSV(t, relation.PaperExample()), nil); code != http.StatusServiceUnavailable {
		t.Errorf("register while draining: status = %d, want 503", code)
	}
	var resp DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK || !resp.Cached {
		t.Errorf("cache hit while draining: status = %d cached = %v, want 200 cached", code, resp.Cached)
	}
	// Stats stay readable during drain.
	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK || !st.Draining {
		t.Errorf("stats while draining: status = %d draining = %v", code, st.Draining)
	}
}

// TestStatsShape exercises /v1/stats counters across sync, async, cached
// and tane (pstore) discoveries.
func TestStatsShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r, err := datagen.Generate(datagen.Spec{Attrs: 6, Rows: 100, Correlation: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, ts, r)
	postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, nil)
	postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, nil) // cache hit
	postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Algorithm: "tane", MaxPartitionBytes: 1}, nil)

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	if st.Datasets != 1 {
		t.Errorf("datasets = %d", st.Datasets)
	}
	if st.Discoveries.Total != 2 {
		t.Errorf("discoveries.total = %d, want 2 (one cached)", st.Discoveries.Total)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses == 0 {
		t.Errorf("cache stats = %+v", st.Cache)
	}
	if st.Discoveries.PhaseTotalMS["lhs"] < 0 {
		t.Errorf("phase totals missing: %+v", st.Discoveries.PhaseTotalMS)
	}
	if _, ok := st.Discoveries.PhaseTotalMS["agree_sets"]; !ok {
		t.Errorf("phase totals missing agree_sets: %+v", st.Discoveries.PhaseTotalMS)
	}
	// The 1-byte partition cap forces evictions, so tane's pstore
	// counters must have flowed into the aggregate.
	if st.Pstore.Evictions == 0 && st.Pstore.Recomputes == 0 {
		t.Errorf("pstore counters empty after capped tane run: %+v", st.Pstore)
	}
	if st.Jobs.Cap == 0 {
		t.Errorf("jobs stats = %+v", st.Jobs)
	}
	if st.UptimeMS <= 0 {
		t.Errorf("uptime = %v", st.UptimeMS)
	}
}

// TestArmstrongOverWire checks the optional Armstrong payload and that it
// keys the cache separately from the plain discovery.
func TestArmstrongOverWire(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reg := register(t, ts, relation.PaperExample())
	var plain DiscoverResponse
	postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &plain)
	if len(plain.Armstrong) != 0 {
		t.Fatal("plain discovery included an Armstrong relation")
	}
	var withArm DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Armstrong: true}, &withArm); code != http.StatusOK {
		t.Fatalf("armstrong discover status = %d", code)
	}
	if withArm.Cached {
		t.Fatal("armstrong request must not reuse the armstrong-less cache entry")
	}
	if len(withArm.Armstrong) == 0 {
		t.Fatal("no Armstrong relation in response")
	}
	if !sameCover(withArm.FDs, plain.FDs) {
		t.Fatal("cover changed when requesting the Armstrong relation")
	}
	// Armstrong rows must satisfy exactly the same FD count as r: spot
	// check the sample is smaller than the data (paper's 1:n promise on
	// the running example).
	if len(withArm.Armstrong) > reg.Rows {
		t.Fatalf("Armstrong sample (%d rows) larger than the relation (%d)", len(withArm.Armstrong), reg.Rows)
	}
}

func TestTimeoutParamClamped(t *testing.T) {
	s, err := New(Config{MaxTimeout: time.Minute, MaxBudgetUnits: 100, MaxAgreeBytes: 4096, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// One table for both entry points: a discovery and a served shard
	// resolve deadline, budget units, max_agree_bytes and default workers
	// through the same clamp.
	hour := int64(time.Hour / time.Millisecond)
	for _, tc := range []struct {
		name                       string
		timeoutMS, units, maxAgree int64
		workers                    int
		wantTimeout                time.Duration
		wantUnits, wantMaxAgree    int64
		wantWorkers                int
	}{
		{"defaults", 0, 0, 0, 0, time.Minute, 100, 4096, 3},
		{"over caps", hour, 1000, 1 << 30, 0, time.Minute, 100, 4096, 3},
		{"under caps", 1500, 7, 64, 2, 1500 * time.Millisecond, 7, 64, 2},
	} {
		dp, err := s.resolveParams(&DiscoverRequest{
			TimeoutMS: tc.timeoutMS, BudgetUnits: tc.units, MaxAgreeBytes: tc.maxAgree, Workers: tc.workers,
		})
		if err != nil {
			t.Fatalf("%s: resolveParams: %v", tc.name, err)
		}
		sp, err := s.shardParams(&wire.ShardRequest{
			Fingerprint: "fp", TimeoutMS: tc.timeoutMS, BudgetUnits: tc.units, MaxAgreeBytes: tc.maxAgree, Workers: tc.workers,
		})
		if err != nil {
			t.Fatalf("%s: shardParams: %v", tc.name, err)
		}
		for entry, p := range map[string]discoverParams{"discover": dp, "shard": sp} {
			if p.timeout != tc.wantTimeout || p.units != tc.wantUnits ||
				p.maxAgreeBytes != tc.wantMaxAgree || p.workers != tc.wantWorkers {
				t.Errorf("%s/%s: got (timeout %v, units %d, max_agree_bytes %d, workers %d), want (%v, %d, %d, %d)",
					tc.name, entry, p.timeout, p.units, p.maxAgreeBytes, p.workers,
					tc.wantTimeout, tc.wantUnits, tc.wantMaxAgree, tc.wantWorkers)
			}
		}
	}
	if _, err := s.resolveParams(&DiscoverRequest{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := s.shardParams(&wire.ShardRequest{Fingerprint: "fp", Workers: -1}); err == nil {
		t.Error("negative shard workers accepted")
	}
	if _, err := s.resolveParams(&DiscoverRequest{Epsilon: 1.5, Algorithm: "tane"}); err == nil {
		t.Error("epsilon out of range accepted")
	}
}

func TestRegistryFull(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDatasets: 1})
	register(t, ts, relation.PaperExample())
	r, err := datagen.Generate(datagen.Spec{Attrs: 3, Rows: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if code := postCSV(t, ts.URL+"/v1/datasets", relationCSV(t, r), nil); code != http.StatusInsufficientStorage {
		t.Fatalf("register over cap: status = %d, want 507", code)
	}
}

func TestAppendDeadlinePartialCommit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	reg := register(t, ts, relation.PaperExample())
	d, _ := s.reg.get(reg.ID)

	// Drive appendRows directly with an expired context: nothing commits
	// and the typed deadline surfaces.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	committed, fp, err := d.appendRows(ctx, [][]string{{"9", "Lille", "9", "1999", "99"}})
	if committed != 0 || err == nil {
		t.Fatalf("cancelled append: committed=%d err=%v", committed, err)
	}
	if fp != reg.Fingerprint {
		t.Fatal("fingerprint moved without a commit")
	}
	_ = ts
}

func TestOptionsKeyExcludesNonSemanticKnobs(t *testing.T) {
	a := discoverParams{workers: 1, units: 10, timeout: time.Second}
	b := discoverParams{workers: 8, units: 999, timeout: time.Minute}
	if a.optionsKey() != b.optionsKey() {
		t.Fatal("workers/budget/timeout must not change the cache key")
	}
	c := discoverParams{epsilon: 0.1}
	if a.optionsKey() == c.optionsKey() {
		t.Fatal("epsilon must change the cache key")
	}
	d := discoverParams{armstrong: true}
	if a.optionsKey() == d.optionsKey() {
		t.Fatal("armstrong must change the cache key")
	}
}

func TestCacheLRUAndInvalidation(t *testing.T) {
	c := newResultCache(2)
	k := func(i int) cacheKey { return cacheKey{fingerprint: fmt.Sprint(i), algorithm: "depminer"} }
	c.put("ds1", k(1), &DiscoverResponse{})
	c.put("ds1", k(2), &DiscoverResponse{})
	c.put("ds2", k(3), &DiscoverResponse{}) // evicts k(1), the LRU
	if _, ok := c.get(k(1)); ok {
		t.Fatal("LRU entry survived over capacity")
	}
	if _, ok := c.get(k(2)); !ok {
		t.Fatal("fresh entry evicted")
	}
	if n := c.invalidateDataset("ds1"); n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	if _, ok := c.get(k(2)); ok {
		t.Fatal("invalidated entry still served")
	}
	if _, ok := c.get(k(3)); !ok {
		t.Fatal("other dataset's entry was invalidated")
	}
	st := c.stats()
	if st.Evictions != 1 || st.Invalidations != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}
