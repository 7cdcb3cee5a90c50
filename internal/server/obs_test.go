package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/wire"
)

// syncBuffer is a goroutine-safe log sink for asserting on log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// scrapeMetrics fetches /metrics and parses the exposition, failing the
// test on anything that is not valid Prometheus text format.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	series, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("metrics exposition does not parse: %v", err)
	}
	return obs.SeriesMap(series)
}

// TestMetricsAgreeWithStats proves the tentpole invariant: /metrics and
// /v1/stats are two renderings of one snapshot, so every row of the
// metrics table matches. The server is durable and a coordinator, so its
// snapshot has every section.
func TestMetricsAgreeWithStats(t *testing.T) {
	workers := newWorkerFleet(t, 1, Config{})
	_, ts := newCoordServer(t, workers, Config{DataDir: t.TempDir(), SnapshotEvery: -1})
	reg := register(t, ts, relation.PaperExample())
	// One miss, one hit.
	for i := 0; i < 2; i++ {
		if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, nil); code != http.StatusOK {
			t.Fatalf("discover %d status = %d", i, code)
		}
	}

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats status = %d", code)
	}
	m := scrapeMetrics(t, ts.URL)

	if st.Durable == nil || st.Shard == nil {
		t.Fatalf("/v1/stats lacks a section: durable=%v shard=%v", st.Durable, st.Shard)
	}
	checkStatsTable(t, m, statsMetrics, &st)
	checkStatsTable(t, m, durableMetrics, st.Durable)
	checkStatsTable(t, m, shardMetrics, st.Shard)
	if st.Shard.Dispatched < 1 || st.Durable.Datasets < 1 {
		t.Fatalf("test drove no sharded or durable traffic: %+v %+v", st.Shard, st.Durable)
	}
	if st.Discoveries.Total < 1 || st.Cache.Hits < 1 {
		t.Fatalf("test drove no traffic? total=%d hits=%d", st.Discoveries.Total, st.Cache.Hits)
	}
	// Phase timings appear as labelled series.
	if _, ok := m[`depminerd_phase_seconds_total{phase="agree_sets"}`]; !ok {
		t.Error("phase_seconds_total{phase=agree_sets} missing")
	}
	// HTTP middleware metrics cover the requests this test just made,
	// labelled by route pattern, not raw path.
	if m[`depminerd_http_requests_total{code="200",method="POST",route="/v1/discover"}`] < 2 {
		t.Errorf("http_requests_total for /v1/discover missing or low; have %v",
			m[`depminerd_http_requests_total{code="200",method="POST",route="/v1/discover"}`])
	}
	// Build info is present as a constant series; exact labels vary by
	// build, so probe via the Registry.
	found := false
	for k := range m {
		if strings.HasPrefix(k, "depminerd_build_info{") {
			found = true
			if m[k] != 1 {
				t.Errorf("build_info = %v, want 1", m[k])
			}
		}
	}
	if !found {
		t.Error("depminerd_build_info missing")
	}
}

// checkStatsTable compares every family of one metrics table in the
// scrape m with the /v1/stats section it reads. Uptime only grows between
// the two reads.
func checkStatsTable[S any](t *testing.T, m map[string]float64, table []statsMetric[S], section *S) {
	t.Helper()
	for _, row := range table {
		name := metricPrefix + "_" + row.name
		got, ok := m[name]
		want := row.value(section)
		switch {
		case !ok:
			t.Errorf("metric %s missing from exposition", name)
		case row.name == "uptime_seconds":
			if got < want {
				t.Errorf("%s = %v, earlier /v1/stats said %v", name, got, want)
			}
		case got != want:
			t.Errorf("%s = %v, /v1/stats says %v", name, got, want)
		}
	}
}

// TestMetricsTableCoversStats pins the metrics tables against the wire
// types: with every numeric /v1/stats field set to a distinct value,
// each row must read a field of its own, and every field must have a
// row. (The phase totals map is the one labelled family.)
func TestMetricsTableCoversStats(t *testing.T) {
	st := StatsResponse{Durable: &wire.DurableStats{}, Shard: &wire.ShardStats{}}
	fields := map[float64]string{} // distinct value → field path
	next := 2.0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Pointer:
			fill(v.Elem(), path)
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(next))
			fields[next] = path
			next++
		case reflect.Float64:
			v.SetFloat(next)
			fields[next] = path
			next++
		case reflect.Bool:
			v.SetBool(true)
			fields[1] = path
		}
	}
	fill(reflect.ValueOf(&st).Elem(), "StatsResponse")

	readBy := map[string]string{}
	claim := func(name string, v float64) {
		if strings.Contains(name, "seconds") {
			v = math.Round(v * 1000) // millisecond fields render as seconds
		}
		path, ok := fields[v]
		switch {
		case !ok:
			t.Errorf("%s reads no /v1/stats field (got %v)", name, v)
		case readBy[path] != "":
			t.Errorf("%s and %s both read %s", name, readBy[path], path)
		default:
			readBy[path] = name
		}
	}
	for _, m := range statsMetrics {
		claim(m.name, m.value(&st))
	}
	for _, m := range durableMetrics {
		claim(m.name, m.value(st.Durable))
	}
	for _, m := range shardMetrics {
		claim(m.name, m.value(st.Shard))
	}
	for _, path := range fields {
		if readBy[path] == "" {
			t.Errorf("/v1/stats field %s has no /metrics family", path)
		}
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var v wire.VersionResponse
	if code := getJSON(t, ts.URL+"/v1/version", &v); code != http.StatusOK {
		t.Fatalf("version status = %d", code)
	}
	if v.GoVersion == "" || v.Revision == "" || v.Version == "" {
		t.Errorf("version response has empty fields: %+v", v)
	}
	// Baseline liveness + readiness on a healthy server.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz = %d", code)
	}
}

// TestObsHammer drives mixed traffic while concurrently scraping
// /metrics, asserting (under -race) that scrapes parse throughout,
// counters are monotone, and gauges drain to zero once traffic stops.
func TestObsHammer(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 8})
	reg := register(t, ts, relation.PaperExample())
	appendRel, err := relation.FromRows(
		[]string{"k", "v"},
		[][]string{{"1", "a"}, {"2", "b"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	appendDS := register(t, ts, appendRel)

	const workers = 6
	const iters = 25
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scraper: successive scrapes must parse and every *_total series
	// must be non-decreasing.
	scrapes := make(chan map[string]float64, 256)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			scrapes <- scrapeMetrics(t, ts.URL)
		}
	}()

	var traffic sync.WaitGroup
	for w := 0; w < workers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			for i := 0; i < iters; i++ {
				switch i % 3 {
				case 0:
					postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, nil)
				case 1:
					postCSV(t, ts.URL+"/v1/datasets/"+appendDS.ID+"/rows",
						fmt.Sprintf("k-%d-%d,v\n", w, i), nil)
				case 2:
					getJSON(t, ts.URL+"/v1/stats", nil)
				}
			}
		}(w)
	}
	traffic.Wait()
	close(stop)
	wg.Wait()
	close(scrapes)

	var prev map[string]float64
	n := 0
	for m := range scrapes {
		n++
		if prev != nil {
			for k, v := range prev {
				if !strings.Contains(k, "_total") {
					continue
				}
				if cur, ok := m[k]; ok && cur < v {
					t.Errorf("counter %s went backwards: %v -> %v", k, v, cur)
				}
			}
		}
		prev = m
	}
	if n == 0 {
		t.Fatal("scraper never ran")
	}

	final := scrapeMetrics(t, ts.URL)
	// The scrape that reads the gauge is itself in flight, so the steady
	// state after traffic stops is exactly 1, not 0.
	if v := final["depminerd_http_in_flight_requests"]; v != 1 {
		t.Errorf("http_in_flight_requests = %v after traffic stopped, want 1 (the scrape itself)", v)
	}
	if v := final["depminerd_jobs_running"]; v != 0 {
		t.Errorf("jobs_running = %v after traffic stopped, want 0", v)
	}
	// Same dataset + params means later discovers are cache hits; only
	// the miss increments discoveries_total, but every request is counted
	// by the HTTP middleware under the route pattern.
	if final["depminerd_discoveries_total"] < 1 {
		t.Errorf("discoveries_total = %v, want >= 1", final["depminerd_discoveries_total"])
	}
	wantDiscovers := float64(workers * (iters/3 + 1)) // i%3==0 iterations
	if got := final[`depminerd_http_requests_total{code="200",method="POST",route="/v1/discover"}`]; got != wantDiscovers {
		t.Errorf("http_requests_total for /v1/discover = %v, want %v", got, wantDiscovers)
	}
	if final["depminerd_http_panics_total"] != 0 {
		t.Errorf("panics_total = %v, want 0", final["depminerd_http_panics_total"])
	}
}

// TestRequestIDPropagation is the end-to-end tracing proof: a client
// request id sent to a coordinator appears in the coordinator's log
// lines AND in the logs of the workers that served its shards, and is
// echoed on the response.
func TestRequestIDPropagation(t *testing.T) {
	workerBuf := &syncBuffer{}
	workerLog, err := obs.NewLogger(workerBuf, obs.Config{Level: "debug"})
	if err != nil {
		t.Fatal(err)
	}
	coordBuf := &syncBuffer{}
	coordLog, err := obs.NewLogger(coordBuf, obs.Config{Level: "debug"})
	if err != nil {
		t.Fatal(err)
	}

	endpoints := newWorkerFleet(t, 2, Config{Logger: workerLog})
	_, ts := newCoordServer(t, endpoints, Config{Logger: coordLog})
	reg := register(t, ts, shardTestRelation(t, 77))

	const rid = "e2e-trace-0042"
	body, err := json.Marshal(DiscoverRequest{Dataset: reg.ID, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/discover", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.RequestIDHeader, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("discover status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(wire.RequestIDHeader); got != rid {
		t.Errorf("response echoed id %q, want %q", got, rid)
	}

	needle := "request_id=" + rid
	if !strings.Contains(coordBuf.String(), needle) {
		t.Errorf("coordinator log has no line with %s:\n%s", needle, coordBuf.String())
	}
	if !strings.Contains(workerBuf.String(), needle) {
		t.Errorf("worker logs have no line with %s — the id did not propagate over the shard dispatch:\n%s",
			needle, workerBuf.String())
	}
	// The worker-side shard event joins too, proving the ctx attrs (not
	// just the access log) carry the id.
	if !strings.Contains(workerBuf.String(), "shard served") {
		t.Errorf("worker logs missing the shard-served event:\n%s", workerBuf.String())
	}
	// And the coordinator logged its fan-out under the same id.
	if !strings.Contains(coordBuf.String(), "shard fan-out done") {
		t.Errorf("coordinator logs missing the fan-out event:\n%s", coordBuf.String())
	}
}
