package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestRunSmoke drives the full closed loop for a second against an
// in-process depminerd at a small admission cap and asserts the contract
// CI relies on: requests flowed, none ended outside the
// ok/partial/rejected classes, and the report round-trips through JSON
// with scalar top-level requests/errors fields (what scripts/jsonfield
// reads one level deep).
func TestRunSmoke(t *testing.T) {
	srv, err := server.New(server.Config{MaxJobs: 2, RetryAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rep, err := run(context.Background(), config{
		addr:        ts.URL,
		concurrency: 4,
		duration:    time.Second,
		mix:         "hit=4,cold=2,append=1,inc=1,async=1",
		rows:        50,
		attrs:       5,
		seed:        1,
		maxAttempts: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d unexpected errors: %+v", rep.Errors, rep.Ops)
	}
	if rep.Latency == nil || rep.Latency.Count == 0 {
		t.Fatal("no latency samples recorded")
	}
	if rep.Latency.P50 > rep.Latency.P99 || rep.Latency.P99 > rep.Latency.Max {
		t.Fatalf("percentiles not monotone: %+v", rep.Latency)
	}
	var sum int64
	for op, st := range rep.Ops {
		if st.Requests != st.OK+st.Partials+st.Rejected+st.Errors {
			t.Fatalf("op %s outcomes don't add up: %+v", op, st)
		}
		sum += st.Requests
	}
	if sum != rep.Requests {
		t.Fatalf("per-op requests %d != total %d", sum, rep.Requests)
	}
	if rep.ServerStats == nil {
		t.Fatal("report missing server stats")
	}

	// The jsonfield contract: requests and errors are scalar top-level
	// fields of the emitted object.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"requests", "errors", "throughput_rps", "latency_ms"} {
		if _, ok := top[field]; !ok {
			t.Fatalf("report has no top-level %q field", field)
		}
	}
	var n int64
	if err := json.Unmarshal(top["requests"], &n); err != nil || n != rep.Requests {
		t.Fatalf("top-level requests = %s (err %v), want %d", top["requests"], err, rep.Requests)
	}
}

// TestRunAppendHeavyDurable drives the append-heavy preset against a
// durable server and asserts the report exposes the WAL group-commit
// evidence CI graphs: durable server stats with acknowledged append
// records and the fsyncs that covered them.
func TestRunAppendHeavyDurable(t *testing.T) {
	srv, err := server.New(server.Config{
		MaxJobs:    2,
		RetryAfter: time.Second,
		DataDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rep, err := run(context.Background(), config{
		addr:        ts.URL,
		concurrency: 4,
		duration:    time.Second,
		mix:         "append-heavy",
		rows:        50,
		attrs:       5,
		seed:        1,
		maxAttempts: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d unexpected errors: %+v", rep.Errors, rep.Ops)
	}
	if st := rep.Ops["append"]; st == nil || st.OK == 0 {
		t.Fatalf("append-heavy preset produced no successful appends: %+v", rep.Ops)
	}
	d := rep.ServerStats.Durable
	if d == nil {
		t.Fatal("durable server stats missing from report")
	}
	if d.AppendRecords == 0 || d.Syncs == 0 {
		t.Fatalf("no WAL activity recorded: %+v", d)
	}
	// Group commit never fsyncs more often than once per record.
	if d.Syncs > d.AppendRecords {
		t.Fatalf("more syncs (%d) than append records (%d)", d.Syncs, d.AppendRecords)
	}
}

// TestRejectedAttemptsCountRetried answers one discover attempt of the
// closed loop with a 429 that the client's retry absorbs: the request
// still ends ok, so rejected stays 0, while rejected_attempts counts the
// 429 the server sent.
func TestRejectedAttemptsCountRetried(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var discovers atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The first discover is the warmup; reject the second once.
		if r.Method == http.MethodPost && r.URL.Path == "/v1/discover" && discovers.Add(1) == 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	rep, err := run(context.Background(), config{
		addr:        ts.URL,
		concurrency: 1,
		duration:    300 * time.Millisecond,
		mix:         "hit=1",
		rows:        20,
		attrs:       4,
		seed:        1,
		maxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if discovers.Load() < 3 {
		t.Fatalf("only %d discover attempts reached the server", discovers.Load())
	}
	if rep.Rejected != 0 || rep.RejectedAttempts != 1 || rep.Errors != 0 {
		t.Fatalf("rejected=%d rejected_attempts=%d errors=%d, want 0, 1, 0", rep.Rejected, rep.RejectedAttempts, rep.Errors)
	}
}

// TestParseMix pins the -mix grammar.
func TestParseMix(t *testing.T) {
	mix, err := parseMix("hit=4, cold=2 ,append=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0].op != "hit" || mix[0].weight != 4 {
		t.Fatalf("mix = %+v", mix)
	}
	if _, err := parseMix("warp=1"); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := parseMix("hit=-1"); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := parseMix("hit=0"); err == nil {
		t.Fatal("empty effective mix accepted")
	}
	if mix, err := parseMix("async"); err != nil || len(mix) != 1 || mix[0].weight != 1 {
		t.Fatalf("bare op: mix = %+v, err = %v", mix, err)
	}
	preset, err := parseMix("append-heavy")
	if err != nil {
		t.Fatal(err)
	}
	if len(preset) != 3 || preset[0].op != "append" || preset[0].weight != 8 {
		t.Fatalf("append-heavy preset = %+v", preset)
	}
}

// TestSummarize pins the nearest-rank percentile definition.
func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.Count != 5 || s.P50 != 3 || s.Max != 5 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P99 != 5 {
		t.Fatalf("p99 of 5 samples = %v, want the max", s.P99)
	}
	if z := summarize(nil); z.Count != 0 || z.P50 != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}
