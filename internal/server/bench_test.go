package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/durable"
	"repro/internal/partition"
)

// benchServer boots a server + httptest listener and registers a
// moderately hard synthetic relation, returning everything a benchmark
// loop needs. The workload (8 attrs x 1000 rows, c=0.4) is large enough
// that a cold discovery runs a real pipeline but small enough to stay
// under the sync threshold.
func benchServer(b *testing.B) (*Server, *httptest.Server, string, []byte) {
	return benchServerCfg(b, Config{})
}

func benchServerCfg(b *testing.B, cfg Config) (*Server, *httptest.Server, string, []byte) {
	return benchServerShape(b, cfg, datagen.Spec{Attrs: 8, Rows: 1000, Correlation: 0.4, Seed: 3})
}

// benchServerShape boots a server under cfg and registers a relation
// generated from spec.
func benchServerShape(b *testing.B, cfg Config, spec datagen.Spec) (*Server, *httptest.Server, string, []byte) {
	b.Helper()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	b.Cleanup(ts.Close)
	b.Cleanup(func() { s.Shutdown(context.Background()) })

	r, err := datagen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets?name=bench", "text/csv", &csv)
	if err != nil {
		b.Fatal(err)
	}
	var reg RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("register status = %d", resp.StatusCode)
	}
	body := []byte(fmt.Sprintf(`{"dataset":%q,"algorithm":"depminer"}`, reg.ID))
	return s, ts, reg.ID, body
}

func benchDiscover(b *testing.B, ts *httptest.Server, body []byte, wantCached bool) {
	resp, err := http.Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var out DiscoverResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(out.FDs) == 0 {
		b.Fatalf("discover status = %d, %d fds", resp.StatusCode, len(out.FDs))
	}
	if out.Cached != wantCached {
		b.Fatalf("cached = %t, want %t", out.Cached, wantCached)
	}
}

// BenchmarkServerDiscoverCold measures the full request path with the
// result cache defeated: each iteration invalidates the dataset's
// entries first, so every response re-runs the Dep-Miner pipeline.
func BenchmarkServerDiscoverCold(b *testing.B) {
	s, ts, id, body := benchServer(b)
	benchDiscover(b, ts, body, false) // warm the dataset snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.invalidateDataset(id)
		benchDiscover(b, ts, body, false)
	}
}

// BenchmarkServerDiscoverCached measures the same request answered from
// the fingerprint-keyed result cache: HTTP + lookup + JSON only, no
// pipeline. The cold/cached ratio is the price a repeat caller avoids.
func BenchmarkServerDiscoverCached(b *testing.B) {
	_, ts, _, body := benchServer(b)
	benchDiscover(b, ts, body, false) // populate the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDiscover(b, ts, body, true)
	}
}

// BenchmarkDiscoverSharded measures distributed discovery against
// single-node. The same benchmark name measures both sides so
// scripts/benchcmp can compare them: DEPMINER_SHARD_WORKERS unset (or
// 0) is the single-node baseline; a positive value boots that many
// in-process worker servers and shards every discovery across them.
// On a single-vCPU testbed the fan-out buys no parallelism, so the
// delta is the pure coordination overhead (dispatch, DMRUN1 streaming,
// adoption, k-way merge) — the number the ≤10%% ns/op acceptance bound
// applies to. The fleet is warmed once (datasets pushed, worker plan
// caches built) before the timer starts, so the steady-state path is
// what is measured, with the coordinator's result cache defeated every
// iteration.
func BenchmarkDiscoverSharded(b *testing.B) {
	workers := 0
	if v := os.Getenv("DEPMINER_SHARD_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			b.Fatalf("bad DEPMINER_SHARD_WORKERS %q", v)
		}
		workers = n
	}
	var cfg Config
	for i := 0; i < workers; i++ {
		ws, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		wts := httptest.NewServer(ws)
		b.Cleanup(wts.Close)
		cfg.WorkerEndpoints = append(cfg.WorkerEndpoints, wts.URL)
	}
	s, ts, id, _ := benchServerCfg(b, cfg)
	body := []byte(fmt.Sprintf(`{"dataset":%q,"algorithm":"depminer","shards":%d}`, id, workers))
	benchDiscover(b, ts, body, false) // warm: push datasets, build plans
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.invalidateDataset(id)
		benchDiscover(b, ts, body, false)
	}
}

// BenchmarkDiscoverySource compares the two inputs a batch discovery can
// read on serve-fleet's dataset shape (8 attrs x 2,002 rows, c=0.4, a
// registered base plus one appended row folded into a durable snapshot):
// "view" captures the resident store's view and partitions it;
// "stream" opens and verifies the DMSNAP1 snapshot and partitions it
// column by column. Both end at the same stripped partition database.
func BenchmarkDiscoverySource(b *testing.B) {
	s, ts, id, _ := benchServerShape(b, Config{DataDir: b.TempDir(), SnapshotEvery: -1},
		datagen.Spec{Attrs: 8, Rows: 2001, Correlation: 0.4, Seed: 3})
	resp, err := http.Post(ts.URL+"/v1/datasets/"+id+"/rows", "text/csv", strings.NewReader("0,1,2,3,4,5,6,7\n"))
	if err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if err := s.store.CompactAll(); err != nil {
		b.Fatal(err)
	}
	d, _ := s.reg.get(id)
	path, complete := d.dur.SnapshotInfo()
	if !complete {
		b.Fatal("the snapshot does not cover the dataset")
	}
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			rel, _, err := d.snapshot()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := partition.NewDatabaseFromSource(rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			sr, err := durable.OpenSnapshotStream(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := partition.NewDatabaseFromSource(sr); err != nil {
				b.Fatal(err)
			}
			sr.Close()
		}
	})
}
