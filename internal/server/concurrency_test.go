package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// TestAdmissionControlRejectsOverCap pins jobs in the running state with
// the test hook, so the 429 behaviour is deterministic: with MaxJobs=2,
// the first two async submissions are admitted and every further one is
// rejected with Retry-After until a slot frees.
func TestAdmissionControlRejectsOverCap(t *testing.T) {
	const capJobs = 2
	s, ts := newTestServer(t, Config{MaxJobs: capJobs})
	release := make(chan struct{})
	s.testHookJobStart = func(string) { <-release }
	reg := register(t, ts, relation.PaperExample())

	force := true
	submit := func() (int, http.Header) {
		req := DiscoverRequest{Dataset: reg.ID, Async: &force}
		body := fmt.Sprintf(`{"dataset":%q,"async":true}`, req.Dataset)
		resp, err := http.Post(ts.URL+"/v1/discover", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	for i := 0; i < capJobs; i++ {
		if code, _ := submit(); code != http.StatusAccepted {
			t.Fatalf("submission %d: status = %d, want 202", i, code)
		}
	}
	for i := 0; i < 5; i++ {
		code, hdr := submit()
		if code != http.StatusTooManyRequests {
			t.Fatalf("over-cap submission %d: status = %d, want 429", i, code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After header")
		}
	}
	st := s.jobs.stats()
	if st.Running != capJobs || st.Rejected != 5 {
		t.Fatalf("queue stats = %+v", st)
	}

	// Freeing the slots lets the pinned jobs finish and new work in (the
	// hook returns immediately once the channel is closed).
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for s.jobs.stats().Running > 0 {
		if time.Now().After(deadline) {
			t.Fatal("pinned jobs never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var resp DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK {
		t.Fatalf("post-release discover status = %d", code)
	}
	if st := s.jobs.stats(); st.PeakRunning > capJobs {
		t.Fatalf("peak running %d exceeded the cap %d", st.PeakRunning, capJobs)
	}
}

// TestDiscoverHammer fires a burst of concurrent discoveries (run with
// -race in CI): every response must be 200 or 429 — never a 5xx — and
// admission control must never let more than MaxJobs pipelines run at
// once, which both the peak counter and the hook-observed concurrency
// verify.
func TestDiscoverHammer(t *testing.T) {
	const capJobs = 3
	s, ts := newTestServer(t, Config{MaxJobs: capJobs, SyncRowLimit: 1 << 20})
	var inFlight, maxInFlight atomic.Int64
	s.testHookJobStart = func(string) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond) // widen the overlap window
		inFlight.Add(-1)
	}
	r, err := datagen.Generate(datagen.Spec{Attrs: 5, Rows: 200, Correlation: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	reg := register(t, ts, r)

	const clients = 24
	var wg sync.WaitGroup
	var ok200, rej429 atomic.Int64
	algos := []string{"depminer", "depminer2", "fastfds", "tane", "incremental"}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"dataset":%q,"algorithm":%q}`, reg.ID, algos[i%len(algos)])
			resp, err := http.Post(ts.URL+"/v1/discover", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				rej429.Add(1)
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	if got := maxInFlight.Load(); got > capJobs {
		t.Fatalf("observed %d concurrent pipelines, cap is %d", got, capJobs)
	}
	if st := s.jobs.stats(); st.PeakRunning > capJobs {
		t.Fatalf("peak running %d exceeded the cap %d", st.PeakRunning, capJobs)
	}
	if ok200.Load() == 0 {
		t.Fatal("no discovery succeeded under load")
	}
	t.Logf("hammer: %d ok, %d rejected, peak concurrency %d/%d",
		ok200.Load(), rej429.Load(), maxInFlight.Load(), capJobs)
}

// TestConcurrentAppendsAndDiscoveries interleaves writers (appends) and
// readers (discoveries) on one dataset under -race: the server must stay
// consistent and every successful discovery must return a cover that is
// correct for SOME committed prefix (verified by fingerprints moving
// monotonically and no 5xx).
func TestConcurrentAppendsAndDiscoveries(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 4})
	reg := register(t, ts, relation.PaperExample())

	var wg sync.WaitGroup
	stop := time.Now().Add(300 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for time.Now().Before(stop) {
			i++
			row := fmt.Sprintf("e%d,d%d,%d,Dept%d,m%d\n", i, i%3, 1990+i%10, i%3, i%4)
			resp, err := http.Post(ts.URL+"/v1/datasets/"+reg.ID+"/rows", "text/csv", strings.NewReader(row))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("append status = %d", resp.StatusCode)
				return
			}
		}
	}()
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				body := fmt.Sprintf(`{"dataset":%q,"algorithm":"incremental"}`, reg.ID)
				resp, err := http.Post(ts.URL+"/v1/discover", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("discover status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestViewsRaceAppends races one appender against depminer and
// incremental discoveries with Armstrong relations on one dataset
// (run with -race in CI). Each discovery reads a view of the store
// captured under the dataset lock while appends carrying new values grow
// the store past it; with one writer the committed rows are a known
// prefix, so every 200 response must equal the library's cover and
// Armstrong relation over the first resp.Rows rows.
func TestViewsRaceAppends(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 4})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	extra := make([][]string, 40)
	for i := range extra {
		extra[i] = []string{fmt.Sprintf("e%d", i), fmt.Sprintf("d%d", i%3), fmt.Sprint(1990 + i%10), fmt.Sprintf("Dept%d", i%4), fmt.Sprintf("m%d", i%5)}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, row := range extra {
			resp, err := http.Post(ts.URL+"/v1/datasets/"+reg.ID+"/rows", "text/csv", strings.NewReader(strings.Join(row, ",")+"\n"))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("append status = %d", resp.StatusCode)
				return
			}
		}
	}()
	var mu sync.Mutex
	var got []DiscoverResponse
	var wg sync.WaitGroup
	for _, req := range []DiscoverRequest{
		{Dataset: reg.ID, Armstrong: true},
		{Dataset: reg.ID, Algorithm: "incremental", Armstrong: true},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var resp DiscoverResponse
				switch code := postJSON(t, ts.URL+"/v1/discover", req, &resp); code {
				case http.StatusOK:
					mu.Lock()
					got = append(got, resp)
					mu.Unlock()
				case http.StatusTooManyRequests:
				default:
					t.Errorf("discover status = %d (%s)", code, resp.Error)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done

	type reference struct {
		cover     []string
		armstrong string
	}
	refs := map[int]reference{}
	for _, resp := range got {
		ref, ok := refs[resp.Rows]
		if !ok {
			prefix := appendRows(t, base, extra[:resp.Rows-base.Rows()])
			res, err := core.Discover(context.Background(), prefix, core.Options{Armstrong: core.ArmstrongRealWorldOrSynthetic})
			if err != nil {
				t.Fatal(err)
			}
			var arm [][]string
			for tt := range res.Armstrong.Rows() {
				arm = append(arm, res.Armstrong.Row(tt))
			}
			ref = reference{renderCover(res.FDs, prefix.Names()), fmt.Sprint(arm)}
			refs[resp.Rows] = ref
		}
		if !sameCover(resp.FDs, ref.cover) {
			t.Fatalf("%s over %d rows: cover %v, want %v", resp.Algorithm, resp.Rows, resp.FDs, ref.cover)
		}
		if fmt.Sprint(resp.Armstrong) != ref.armstrong {
			t.Fatalf("%s Armstrong relation over %d rows: %v, want %s", resp.Algorithm, resp.Rows, resp.Armstrong, ref.armstrong)
		}
	}
	t.Logf("%d responses over %d distinct prefixes", len(got), len(refs))
}
