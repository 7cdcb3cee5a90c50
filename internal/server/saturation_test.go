package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/leakcheck"
	"repro/internal/relation"
	"repro/wire"
)

// saturationSetup boots a server with a tight admission cap and a
// briefly-pinned job hook (so overload is guaranteed, not
// probabilistic), registers the paper's running example, and returns a
// client factory whose HTTP transport is torn down before the leak
// check runs. leakcheck.Check must be registered by the caller FIRST so
// its cleanup runs last.
func saturationSetup(t *testing.T, capJobs int, pin time.Duration) (*Server, string, func(opts ...client.Option) *client.Client) {
	t.Helper()
	s, ts := newTestServer(t, Config{MaxJobs: capJobs, SyncRowLimit: 1 << 20, RetryAfter: time.Second})
	s.testHookJobStart = func(string) { time.Sleep(pin) }
	reg := register(t, ts, relation.PaperExample())

	hc := &http.Client{}
	t.Cleanup(hc.CloseIdleConnections)
	mk := func(opts ...client.Option) *client.Client {
		return client.New(ts.URL, append([]client.Option{client.WithHTTPClient(hc)}, opts...)...)
	}
	return s, reg.ID, mk
}

// TestSaturationOutcomes is the tentpole invariant: at 4× the admission
// cap, with retries disabled, every single request must resolve to
// exactly one of {complete result, governed partial, 429 carrying a
// parseable Retry-After} — never a 5xx, never a hang, and never more
// than one of those classifications at once. Run under -race in CI; the
// leak check asserts the burst unwinds completely.
func TestSaturationOutcomes(t *testing.T) {
	leakcheck.Check(t)
	const capJobs = 2
	s, dsID, mk := saturationSetup(t, capJobs, 10*time.Millisecond)

	const clients = 4 * capJobs
	const perClient = 3
	var results, partials, rejected, unexpected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := mk(client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}))
			for r := 0; r < perClient; r++ {
				req := wire.DiscoverRequest{Dataset: dsID}
				if (i+r)%3 == 2 {
					// A slice of the load runs under a 1-unit budget, so
					// governed partials appear among the outcomes.
					req.BudgetUnits = 1
				}
				resp, err := c.Discover(context.Background(), req)
				switch {
				case err == nil && resp != nil && !resp.Partial:
					results.Add(1)
				case errors.Is(err, client.ErrPartial) && resp != nil:
					partials.Add(1)
				case errors.Is(err, client.ErrTooManyRequests):
					var apiErr *client.APIError
					if !errors.As(err, &apiErr) || apiErr.RetryAfter <= 0 {
						t.Errorf("429 without a parseable Retry-After: %v", err)
						unexpected.Add(1)
						continue
					}
					rejected.Add(1)
				default:
					t.Errorf("request resolved outside the contract: resp=%v err=%v", resp, err)
					unexpected.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()

	total := results.Load() + partials.Load() + rejected.Load()
	if got := total + unexpected.Load(); got != clients*perClient {
		t.Fatalf("outcomes %d != requests %d", got, clients*perClient)
	}
	if results.Load() == 0 {
		t.Error("no request completed under saturation")
	}
	if rejected.Load() == 0 {
		t.Error("4× overload produced no 429s — admission control did not engage")
	}
	if st := s.jobs.stats(); st.PeakRunning > capJobs {
		t.Fatalf("peak running %d exceeded the cap %d", st.PeakRunning, capJobs)
	}
	t.Logf("saturation: %d results, %d partials, %d rejected (cap %d, clients %d)",
		results.Load(), partials.Load(), rejected.Load(), capJobs, clients)
}

// TestSaturationBackoffRecovers is the recovery half of the contract:
// with retries enabled, every request the admission controller rejected
// must eventually complete — the client's backoff (honouring the 1s
// Retry-After) absorbs the overload instead of surfacing it.
func TestSaturationBackoffRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second backoff waves")
	}
	leakcheck.Check(t)
	const capJobs = 2
	s, dsID, mk := saturationSetup(t, capJobs, 10*time.Millisecond)

	var attempts429 atomic.Int64
	observer := func(a client.Attempt) {
		if a.Status == http.StatusTooManyRequests {
			attempts429.Add(1)
		}
	}

	const clients = 4 * capJobs
	var failed atomic.Int64
	var completed atomic.Int64
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := mk(
				client.WithRetryPolicy(client.RetryPolicy{
					MaxAttempts: 50,
					BaseDelay:   10 * time.Millisecond,
					MaxDelay:    time.Second,
				}),
				client.WithAttemptObserver(observer),
			)
			resp, err := c.Discover(ctx, wire.DiscoverRequest{Dataset: dsID})
			if err != nil && !errors.Is(err, client.ErrPartial) {
				t.Errorf("request never recovered: %v", err)
				failed.Add(1)
				return
			}
			if resp == nil || len(resp.FDs) == 0 {
				t.Errorf("recovered request returned no cover: %+v", resp)
				failed.Add(1)
				return
			}
			completed.Add(1)
		}()
	}
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d of %d requests did not recover", failed.Load(), clients)
	}
	if completed.Load() != clients {
		t.Fatalf("completed %d != clients %d", completed.Load(), clients)
	}
	if attempts429.Load() == 0 {
		t.Fatal("no 429 was ever observed — the test did not exercise recovery")
	}
	st := s.jobs.stats()
	if st.Rejected == 0 {
		t.Fatal("server counted no rejections")
	}
	t.Logf("recovery: %d clients completed through %d rejected attempts (server rejected %d)",
		completed.Load(), attempts429.Load(), st.Rejected)
}

// TestRetryAfterHeaderIsIntegerSeconds pins the RFC 9110 form on the
// wire: the 429's Retry-After must be a bare non-negative integer (no
// units, no date needed for our own hint) that the client parser
// accepts as delta-seconds.
func TestRetryAfterHeaderIsIntegerSeconds(t *testing.T) {
	for _, tc := range []struct {
		cfg  time.Duration
		want string
	}{
		{0, "1"},                       // default
		{time.Second, "1"},             // exact
		{1500 * time.Millisecond, "2"}, // rounded up, never early
		{3 * time.Second, "3"},
		{10 * time.Millisecond, "1"}, // floored at 1
	} {
		if got := retryAfterSeconds(Config{RetryAfter: tc.cfg}.withDefaults().RetryAfter); got != tc.want {
			t.Errorf("retryAfterSeconds(withDefaults %v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}

	// And over the wire: saturate a cap-1 server and inspect the header.
	s, ts := newTestServer(t, Config{MaxJobs: 1, SyncRowLimit: 1 << 20, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	defer close(release)
	s.testHookJobStart = func(string) { <-release }
	reg := register(t, ts, relation.PaperExample())

	async := true
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Async: &async}, nil); code != http.StatusAccepted {
		t.Fatalf("pin submission status = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.jobs.stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pinned job never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/discover", "application/json",
		strings.NewReader(fmt.Sprintf(`{"dataset":%q}`, reg.ID)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want %q (integer delta-seconds)", got, "2")
	}
}
