package server

// Distributed-discovery tests: the coordinator/worker fan-out must be
// invisible in results. The root package's FuzzPlan crosses shard
// counts, algorithms and spill thresholds against live worker fleets;
// the fault tests here kill workers at every rung of the fallback ladder
// (dead endpoint, mid-stream death, torn attestation, injected faults)
// and require a local fallback or a governed partial — never a wrong
// cover.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/client"
	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/extsort"
	"repro/internal/faultinject"
	"repro/internal/partition"
	"repro/internal/relation"
	"repro/wire"
)

// newWorkerFleet boots n worker servers and returns their endpoints.
func newWorkerFleet(t *testing.T, n int, cfg Config) []string {
	t.Helper()
	endpoints := make([]string, n)
	for i := range endpoints {
		_, ts := newTestServer(t, cfg)
		endpoints[i] = ts.URL
	}
	return endpoints
}

// newCoordinator boots a coordinator over the given worker endpoints.
func newCoordServer(t *testing.T, endpoints []string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.WorkerEndpoints = endpoints
	return newTestServer(t, cfg)
}

func discover(t *testing.T, ts *httptest.Server, req DiscoverRequest) (int, DiscoverResponse) {
	t.Helper()
	var resp DiscoverResponse
	code := postJSON(t, ts.URL+"/v1/discover", req, &resp)
	return code, resp
}

func shardTestRelation(t *testing.T, seed uint64) *relation.Relation {
	t.Helper()
	r, err := datagen.Generate(datagen.Spec{Attrs: 5, Rows: 70, Correlation: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestShardDatasetPushAndStats starts with a cold fleet: no worker knows
// the dataset, so the first dispatch 404s, the coordinator pushes the
// CSV through the ordinary registration API, and the retry succeeds
// remotely. Both sides' /v1/stats must account for all of it.
func TestShardDatasetPushAndStats(t *testing.T) {
	r := shardTestRelation(t, 5)
	workers := newWorkerFleet(t, 2, Config{})
	_, ts := newCoordServer(t, workers, Config{})
	reg := register(t, ts, r)

	code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 2})
	if code != http.StatusOK || resp.Partial {
		t.Fatalf("cold-fleet discover: code=%d partial=%v (%s)", code, resp.Partial, resp.Error)
	}
	if resp.ShardsRemote != 2 {
		t.Fatalf("remote shards = %d, want 2 (fleet was healthy)", resp.ShardsRemote)
	}
	if !sameCover(resp.FDs, fromScratchCover(t, r)) {
		t.Fatal("cold-fleet cover differs from reference")
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK || st.Shard == nil {
		t.Fatalf("coordinator stats: code=%d shard=%v", code, st.Shard)
	}
	if st.Shard.Dispatched != 2 || st.Shard.Remote != 2 || st.Shard.LocalFallbacks != 0 {
		t.Fatalf("coordinator fan-out counters: %+v", st.Shard)
	}
	if st.Shard.DatasetsPushed != 2 {
		t.Fatalf("datasets pushed = %d, want 2 (one per cold worker)", st.Shard.DatasetsPushed)
	}
	if st.Shard.ReceivedSets == 0 || st.Shard.ReceivedBytes == 0 {
		t.Fatalf("received counters empty: %+v", st.Shard)
	}
	if st.Shard.DispatchTotalMS <= 0 || st.Shard.StreamTotalMS <= 0 || st.Shard.MergeTotalMS <= 0 {
		t.Fatalf("per-shard phase timings missing: %+v", st.Shard)
	}

	// Each worker served one shard and now holds the pushed dataset.
	for i, w := range workers {
		var wst StatsResponse
		if code := getJSON(t, w+"/v1/stats", &wst); code != http.StatusOK || wst.Shard == nil {
			t.Fatalf("worker %d stats: code=%d shard=%v", i, code, wst.Shard)
		}
		if wst.Shard.Served != 1 || wst.Shard.ServedErrors != 0 {
			t.Fatalf("worker %d serving counters: %+v", i, wst.Shard)
		}
		if wst.Datasets != 1 {
			t.Fatalf("worker %d datasets = %d, want the pushed one", i, wst.Datasets)
		}
	}
}

// TestShardWorkerDownFallsBackLocal points every endpoint at a dead
// port: the full fan-out must degrade to local computation and still
// produce the exact cover.
func TestShardWorkerDownFallsBackLocal(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	r := shardTestRelation(t, 6)
	_, ts := newCoordServer(t, []string{deadURL}, Config{})
	reg := register(t, ts, r)
	code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 2})
	if code != http.StatusOK || resp.Partial {
		t.Fatalf("dead-fleet discover: code=%d partial=%v (%s)", code, resp.Partial, resp.Error)
	}
	if resp.ShardsLocal != 2 || resp.ShardsRemote != 0 {
		t.Fatalf("dead fleet: remote=%d local=%d, want all local", resp.ShardsRemote, resp.ShardsLocal)
	}
	if !sameCover(resp.FDs, fromScratchCover(t, r)) {
		t.Fatal("fallback cover differs from reference")
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Shard == nil || st.Shard.LocalFallbacks != 2 {
		t.Fatalf("local fallback counter: %+v", st.Shard)
	}
}

// fakeWorker serves /v1/shard/agree with an arbitrary handler while
// delegating everything else (the dataset push) to a real server.
func fakeWorker(t *testing.T, real *httptest.Server, shard http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/agree", shard)
	mux.Handle("/", httputilProxy(real.URL))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// httputilProxy forwards requests to base — a minimal reverse proxy so
// fake workers can still accept dataset pushes.
func httputilProxy(base string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.Path+"?"+r.URL.RawQuery, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if rerr != nil {
				return
			}
		}
	})
}

// TestShardWorkerDiesMidStream kills the worker after the run stream
// started: the coordinator's adoption must reject the torn stream and
// the shard must be recomputed locally, cover intact.
func TestShardWorkerDiesMidStream(t *testing.T) {
	_, realWorker := newTestServer(t, Config{})
	worker := fakeWorker(t, realWorker, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.RunContentType)
		w.WriteHeader(http.StatusOK)
		// Valid magic, then a block header promising bytes that never
		// arrive — a worker dying mid-write.
		w.Write([]byte("DMRUN1\n\xff\xff\x00\x00"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	})

	r := shardTestRelation(t, 7)
	_, ts := newCoordServer(t, []string{worker.URL}, Config{})
	reg := register(t, ts, r)
	code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 2})
	if code != http.StatusOK || resp.Partial {
		t.Fatalf("mid-stream death: code=%d partial=%v (%s)", code, resp.Partial, resp.Error)
	}
	if resp.ShardsLocal != 2 {
		t.Fatalf("mid-stream death: local=%d, want 2", resp.ShardsLocal)
	}
	if !sameCover(resp.FDs, fromScratchCover(t, r)) {
		t.Fatal("cover differs after mid-stream worker death")
	}
}

// TestShardTrailerMismatchDiscards serves a perfectly framed stream of
// bogus agree sets whose end-of-stream attestation disagrees with the
// record count: the adopted run must be discarded (never merged — the
// cover proves it) and the shard recomputed locally.
func TestShardTrailerMismatchDiscards(t *testing.T) {
	_, realWorker := newTestServer(t, Config{})
	worker := fakeWorker(t, realWorker, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", wire.ShardSetsTrailer)
		w.Header().Set("Content-Type", wire.RunContentType)
		rw := extsort.NewRunWriter(w)
		// Sorted, well-formed, and wrong: were these ever merged, the
		// cover below could not match the reference.
		for i := 1; i <= 3; i++ {
			var s attrset.Set
			s[0] = uint64(i)
			rw.Write(s)
		}
		rw.Close()
		w.Header().Set(wire.ShardSetsTrailer, "999")
	})

	r := shardTestRelation(t, 8)
	_, ts := newCoordServer(t, []string{worker.URL}, Config{})
	reg := register(t, ts, r)
	code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 1})
	if code != http.StatusOK || resp.Partial {
		t.Fatalf("trailer mismatch: code=%d partial=%v (%s)", code, resp.Partial, resp.Error)
	}
	if resp.ShardsLocal != 1 || resp.ShardsRemote != 0 {
		t.Fatalf("trailer mismatch: remote=%d local=%d, want the shard recomputed", resp.ShardsRemote, resp.ShardsLocal)
	}
	if !sameCover(resp.FDs, fromScratchCover(t, r)) {
		t.Fatal("cover differs — a discarded run leaked into the merge")
	}
}

// TestShardCouplesTrailerFallsBackLocal relays a real worker's stream
// but drops or garbles its couple-count trailer: the coordinator cannot
// add the shard's couples, so it discards the run and sweeps the shard
// locally, and the cover and couple count are the single-node ones.
func TestShardCouplesTrailerFallsBackLocal(t *testing.T) {
	r := shardTestRelation(t, 12)
	ref, err := core.Discover(context.Background(), r, core.Options{Armstrong: core.ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	_, realWorker := newTestServer(t, Config{})
	for _, couples := range []string{"", "many", "-5"} {
		worker := fakeWorker(t, realWorker, func(w http.ResponseWriter, req *http.Request) {
			resp, err := http.Post(realWorker.URL+req.URL.Path, "application/json", req.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				w.WriteHeader(resp.StatusCode)
				io.Copy(w, resp.Body)
				return
			}
			w.Header().Set("Trailer", wire.ShardSetsTrailer+", "+wire.ShardCouplesTrailer)
			w.Header().Set("Content-Type", wire.RunContentType)
			io.Copy(w, resp.Body)
			w.Header().Set(wire.ShardSetsTrailer, resp.Trailer.Get(wire.ShardSetsTrailer))
			if couples != "" {
				w.Header().Set(wire.ShardCouplesTrailer, couples)
			}
		})
		_, ts := newCoordServer(t, []string{worker.URL}, Config{})
		reg := register(t, ts, r)
		code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 1})
		if code != http.StatusOK || resp.Partial {
			t.Fatalf("couples trailer %q: code=%d partial=%v (%s)", couples, code, resp.Partial, resp.Error)
		}
		if resp.ShardsLocal != 1 || resp.ShardsRemote != 0 {
			t.Fatalf("couples trailer %q: remote=%d local=%d, want the shard recomputed", couples, resp.ShardsRemote, resp.ShardsLocal)
		}
		if !sameCover(resp.FDs, renderCover(ref.FDs, r.Names())) || resp.Couples != ref.Couples {
			t.Fatalf("couples trailer %q: couples %d (want %d), or the cover differs", couples, resp.Couples, ref.Couples)
		}
	}
}

// TestShardRejectsCoupleRangeFields posts a shard request in the
// couple-index form, with couple_start, couple_end, numbering and
// total_couples: strict decoding refuses it with 400, which sends a
// coordinator of that form to its local fallback.
func TestShardRejectsCoupleRangeFields(t *testing.T) {
	r := shardTestRelation(t, 13)
	_, ts := newTestServer(t, Config{})
	reg := register(t, ts, r)
	for name, body := range map[string]map[string]any{
		"couple range": {"fingerprint": reg.Fingerprint, "couple_start": 0, "couple_end": 1},
		"numbering":    {"fingerprint": reg.Fingerprint, "tuple_end": 1, "numbering": "mc-u-major/1", "total_couples": 1},
	} {
		if code := postJSON(t, ts.URL+"/v1/shard/agree", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
}

// TestShardFaultInjectionSweep arms every distributed hook point. A
// dispatch or stream fault degrades that shard to the local rung; a
// merge fault fails the discovery cleanly. In no case may a wrong cover
// escape.
func TestShardFaultInjectionSweep(t *testing.T) {
	r := shardTestRelation(t, 9)
	want := fromScratchCover(t, r)
	workers := newWorkerFleet(t, 2, Config{})

	for _, point := range faultinject.ShardPoints() {
		t.Run(point, func(t *testing.T) {
			_, ts := newCoordServer(t, workers, Config{})
			reg := register(t, ts, r)
			faultinject.Set(point, func() error { return fmt.Errorf("injected %s fault", point) })
			code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 2})
			faultinject.Reset()

			switch point {
			case faultinject.ShardMerge:
				if code == http.StatusOK && !resp.Partial {
					t.Fatalf("merge fault produced a clean 200: %v", resp.FDs)
				}
			default:
				if code != http.StatusOK || resp.Partial {
					t.Fatalf("%s fault: code=%d partial=%v (%s)", point, code, resp.Partial, resp.Error)
				}
				if resp.ShardsLocal != 2 {
					t.Fatalf("%s fault: local=%d, want every shard on the fallback rung", point, resp.ShardsLocal)
				}
				if !sameCover(resp.FDs, want) {
					t.Fatalf("%s fault: cover differs from reference", point)
				}
			}

			// The coordinator recovers fully once the fault clears.
			code, resp = discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 2})
			if code != http.StatusOK || resp.Partial || !sameCover(resp.FDs, want) {
				t.Fatalf("after %s cleared: code=%d partial=%v cover ok=%v",
					point, code, resp.Partial, sameCover(resp.FDs, want))
			}
		})
	}
}

// TestShardBudgetGovernedPartial gives the coordinator a budget smaller
// than the couple space: the upfront charge fails before any fan-out
// and the discovery reports a governed partial — 200, Partial set, no
// cover — exactly like a single-node budget overrun.
func TestShardBudgetGovernedPartial(t *testing.T) {
	r := shardTestRelation(t, 10)
	workers := newWorkerFleet(t, 1, Config{})
	_, ts := newCoordServer(t, workers, Config{MaxBudgetUnits: 3})
	reg := register(t, ts, r)

	code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 2})
	if code != http.StatusOK {
		t.Fatalf("governed sharded discover: status %d", code)
	}
	if !resp.Partial || resp.Error == "" {
		t.Fatalf("expected governed partial, got partial=%v error=%q", resp.Partial, resp.Error)
	}
	if len(resp.FDs) != 0 {
		t.Fatalf("governed partial carried a cover: %v", resp.FDs)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Shard != nil && st.Shard.Remote != 0 {
		t.Fatalf("over-budget discovery still dispatched shards: %+v", st.Shard)
	}
}

// TestShardedDiscoveryPopulatesCache is the satellite-2 regression: the
// result-cache key excludes shard topology, so a sharded discovery must
// populate the entry a later single-node request hits — and vice versa.
func TestShardedDiscoveryPopulatesCache(t *testing.T) {
	r := shardTestRelation(t, 11)
	workers := newWorkerFleet(t, 2, Config{})
	_, ts := newCoordServer(t, workers, Config{})
	reg := register(t, ts, r)

	code, sharded := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 2})
	if code != http.StatusOK || sharded.Cached {
		t.Fatalf("sharded discover: code=%d cached=%v", code, sharded.Cached)
	}
	code, plain := discover(t, ts, DiscoverRequest{Dataset: reg.ID})
	if code != http.StatusOK {
		t.Fatalf("plain discover: %d", code)
	}
	if !plain.Cached {
		t.Fatal("plain discover missed the cache entry the sharded run populated")
	}
	if !sameCover(plain.FDs, sharded.FDs) {
		t.Fatal("cached cover differs from the sharded one")
	}
	// And the reverse direction, on a second dataset.
	r2 := shardTestRelation(t, 12)
	reg2 := register(t, ts, r2)
	if code, first := discover(t, ts, DiscoverRequest{Dataset: reg2.ID}); code != http.StatusOK || first.Cached {
		t.Fatalf("plain cold discover: code=%d cached=%v", code, first.Cached)
	}
	code, second := discover(t, ts, DiscoverRequest{Dataset: reg2.ID, Shards: 2})
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("sharded discover after plain: code=%d cached=%v, want a cache hit", code, second.Cached)
	}
}

// TestShardParamValidation pins the Shards knob contract.
func TestShardParamValidation(t *testing.T) {
	r := shardTestRelation(t, 13)

	// Shards on a non-coordinator is a client error, not a silent ignore.
	_, solo := newTestServer(t, Config{})
	regSolo := register(t, solo, r)
	if code, _ := discover(t, solo, DiscoverRequest{Dataset: regSolo.ID, Shards: 2}); code != http.StatusBadRequest {
		t.Fatalf("Shards on non-coordinator: status %d, want 400", code)
	}

	workers := newWorkerFleet(t, 1, Config{})
	_, ts := newCoordServer(t, workers, Config{})
	reg := register(t, ts, r)
	if code, _ := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: -1}); code != http.StatusBadRequest {
		t.Fatalf("negative Shards: want 400")
	}
	// FastFDs shares Dep-Miner's step 1, so it shards the same way and
	// returns the single-node depminer cover.
	code, ff := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Algorithm: "fastfds", Shards: 2})
	if code != http.StatusOK || ff.ShardsRemote == 0 {
		t.Fatalf("Shards with fastfds: code=%d shards_remote=%d (%s)", code, ff.ShardsRemote, ff.Error)
	}
	if !sameCover(ff.FDs, fromScratchCover(t, r)) {
		t.Fatalf("sharded fastfds cover differs from the single-node depminer cover:\n%v", ff.FDs)
	}
	// Absurd shard counts are clamped, not refused.
	code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 1000})
	if code != http.StatusOK {
		t.Fatalf("Shards=1000: status %d", code)
	}
	if resp.Shards > 64 {
		t.Fatalf("shard count %d not clamped", resp.Shards)
	}
}

// TestShardAgreeEndpoint exercises the worker protocol directly: a full
// round trip through the SDK client (dispatch → adopt → merge → Finish)
// must reproduce the single-node family, and every malformed request
// must map to its status.
// shardPlan builds the plan a coordinator would split r's couples by.
func shardPlan(t *testing.T, r *relation.Relation) *agree.Plan {
	t.Helper()
	plan, err := agree.NewPlan(context.Background(), partition.NewDatabase(r), 1)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestShardAgreeEndpoint(t *testing.T) {
	r := shardTestRelation(t, 14)
	s, ts := newTestServer(t, Config{})
	reg := register(t, ts, r)

	db := partition.NewDatabase(r)
	plan := shardPlan(t, r)
	ref, err := agree.Couples(context.Background(), db, agree.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	cl := newClientFor(t, ts)
	sp := extsort.NewSpiller(t.TempDir(), nil)
	defer sp.Close()
	var streamedSets int64
	streamedCouples := 0
	for _, sh := range plan.Split(3) {
		stream, err := cl.AgreeShard(context.Background(), wire.ShardRequest{
			Fingerprint: reg.Fingerprint,
			TupleStart:  sh.Start,
			TupleEnd:    sh.End,
		})
		if err != nil {
			t.Fatalf("AgreeShard(%v): %v", sh, err)
		}
		pr, err := sp.AdoptRun(stream.Body, 0)
		if err != nil {
			t.Fatalf("AdoptRun(%v): %v", sh, err)
		}
		want, ok := stream.TrailerSets()
		if !ok {
			t.Fatalf("shard %v: missing sets trailer", sh)
		}
		if want != pr.Sets() {
			t.Fatalf("shard %v: trailer %d, adopted %d", sh, want, pr.Sets())
		}
		couples, ok := stream.TrailerCouples()
		if !ok {
			t.Fatalf("shard %v: missing couples trailer", sh)
		}
		pr.Commit()
		streamedSets += pr.Sets()
		streamedCouples += int(couples)
		stream.Close()
	}
	var merged attrset.Family
	if err := sp.Merge(nil, func(set attrset.Set) error {
		merged = append(merged, set)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if streamedCouples != ref.Couples {
		t.Fatalf("shards attested %d couples, reference %d", streamedCouples, ref.Couples)
	}
	fam := plan.Finish(merged, streamedCouples)
	if len(fam) != len(ref.Sets) {
		t.Fatalf("remote family has %d sets, reference %d", len(fam), len(ref.Sets))
	}
	for i := range fam {
		if fam[i] != ref.Sets[i] {
			t.Fatalf("remote family differs at %d", i)
		}
	}

	// Worker-side serving counters. ServedSets counts per-shard
	// emissions, so cross-shard duplicates are counted once per shard
	// that emitted them — it must match what actually streamed, not the
	// deduplicated family size.
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Shard == nil || st.Shard.Served != 3 || st.Shard.ServedSets != streamedSets {
		t.Fatalf("worker serving counters: %+v (streamed %d sets)", st.Shard, streamedSets)
	}

	// Protocol rejections.
	for name, tc := range map[string]struct {
		req  wire.ShardRequest
		code int
	}{
		"unknown fingerprint": {wire.ShardRequest{Fingerprint: "nope", TupleEnd: 1}, http.StatusNotFound},
		"missing fingerprint": {wire.ShardRequest{TupleEnd: 1}, http.StatusBadRequest},
		"negative start":      {wire.ShardRequest{Fingerprint: reg.Fingerprint, TupleStart: -1, TupleEnd: 1}, http.StatusBadRequest},
		"inverted range":      {wire.ShardRequest{Fingerprint: reg.Fingerprint, TupleStart: 2, TupleEnd: 1}, http.StatusBadRequest},
		"range past rows":     {wire.ShardRequest{Fingerprint: reg.Fingerprint, TupleEnd: plan.Rows() + 1}, http.StatusBadRequest},
		"unshardable algo":    {wire.ShardRequest{Fingerprint: reg.Fingerprint, Algorithm: "tane", TupleEnd: 1}, http.StatusBadRequest},
	} {
		code := postJSON(t, ts.URL+"/v1/shard/agree", tc.req, nil)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d", name, code, tc.code)
		}
	}
	if s.stats.shard.servedErrors == 0 {
		t.Error("served-error counter never moved")
	}
}

// TestShardPlanStaleAfterAppend grows the dataset between the
// coordinator's plan and the dispatch: the worker must refuse rather
// than compute a range over other bytes.
func TestShardPlanStaleAfterAppend(t *testing.T) {
	r := shardTestRelation(t, 15)
	_, ts := newTestServer(t, Config{})
	reg := register(t, ts, r)

	// Coordinator planned against the pre-append fingerprint; the append
	// lands before the dispatch arrives.
	if code, _ := appendCSV(t, ts.URL, reg.ID, "a,b,c,d,e\n"); code != http.StatusOK {
		t.Fatal("append failed")
	}
	req := wire.ShardRequest{Fingerprint: reg.Fingerprint, TupleEnd: r.Rows()}
	if code := postJSON(t, ts.URL+"/v1/shard/agree", req, nil); code != http.StatusNotFound {
		// The old fingerprint no longer names any dataset: 404, which
		// sends the coordinator down the push-and-retry rung.
		t.Fatalf("stale fingerprint: status %d, want 404", code)
	}
}

// newClientFor builds an SDK client against a test server — the same
// client type the coordinator dispatches through.
func newClientFor(t *testing.T, ts *httptest.Server) *client.Client {
	t.Helper()
	return client.New(ts.URL)
}

// TestShardPlanBuildFailureNotCached fails one worker-side plan build
// with an injected fault. The request answers 500; once the fault is
// cleared, the next request for the same fingerprint must build afresh
// and serve the shard instead of replaying the cached failure.
func TestShardPlanBuildFailureNotCached(t *testing.T) {
	r := shardTestRelation(t, 14)
	_, ts := newTestServer(t, Config{})
	reg := register(t, ts, r)
	req := wire.ShardRequest{Fingerprint: reg.Fingerprint, TupleEnd: r.Rows()}

	faultinject.Set(faultinject.PoolTask, faultinject.FailWith(fmt.Errorf("boom")))
	code := postJSON(t, ts.URL+"/v1/shard/agree", req, nil)
	faultinject.Clear(faultinject.PoolTask)
	if code != http.StatusInternalServerError {
		t.Fatalf("faulted plan build: status %d, want 500", code)
	}
	if code := postJSON(t, ts.URL+"/v1/shard/agree", req, nil); code != http.StatusOK {
		t.Fatalf("after the fault cleared: status %d, want 200", code)
	}
}
