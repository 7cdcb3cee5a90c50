package server

// Satellite: snapshot-fed discovery. A durable dataset whose snapshot
// fully covers its acknowledged state must discover by streaming the
// snapshot's columns straight into the partition build — no
// full-relation materialisation — for every batch miner and for the
// Armstrong relation, which reads only the snapshot's dictionaries, and
// fall back to the materialised path the moment the WAL grows past the
// snapshot.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/wire"
)

// neverViewed reports whether no discovery or push has ever read the
// dataset's rows from its in-memory store — the white-box "streamed, not
// read from memory" proof.
func neverViewed(t *testing.T, s *Server, id string) bool {
	t.Helper()
	d, ok := s.reg.get(id)
	if !ok {
		t.Fatalf("dataset %s not registered", id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.views == 0
}

func TestSnapshotStreamedDiscovery(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{DataDir: dir, SnapshotEvery: -1})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	if code, _ := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n91,7,01,Sales,8\n"); code != http.StatusOK {
		t.Fatal("append failed")
	}
	grown := appendRows(t, base, [][]string{
		{"90", "6", "99", "Research", "7"},
		{"91", "7", "01", "Sales", "8"},
	})
	// Fold the WAL into a snapshot; the snapshot now reproduces the full
	// acknowledged state by itself.
	if err := s.store.CompactAll(); err != nil {
		t.Fatal(err)
	}

	var resp DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK {
		t.Fatalf("discover status %d (%s)", code, resp.Error)
	}
	if !resp.SnapshotStreamed {
		t.Fatal("discovery did not stream the complete snapshot")
	}
	if !sameCover(resp.FDs, fromScratchCover(t, grown)) {
		t.Fatalf("streamed cover differs from reference:\n%v", resp.FDs)
	}
	if resp.Rows != grown.Rows() || resp.Attributes != grown.Arity() {
		t.Fatalf("streamed shape %dx%d, want %dx%d", resp.Rows, resp.Attributes, grown.Rows(), grown.Arity())
	}
	// The proof that nothing was rehydrated: the dataset's materialised
	// snapshot was never built, and the stats counter moved.
	if !neverViewed(t, s, reg.ID) {
		t.Fatal("streamed discovery materialised the relation anyway")
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Discoveries.SnapshotStreams != 1 {
		t.Fatalf("SnapshotStreams = %d, want 1", st.Discoveries.SnapshotStreams)
	}

	// An Armstrong construction reads only the dictionaries, which the
	// snapshot keeps: it streams too, and its rows equal those of a
	// materialised discovery over the same content.
	var arm DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Armstrong: true}, &arm); code != http.StatusOK {
		t.Fatalf("armstrong discover status %d", code)
	}
	if !arm.SnapshotStreamed {
		t.Fatal("armstrong discovery did not stream the complete snapshot")
	}
	if !neverViewed(t, s, reg.ID) {
		t.Fatal("armstrong discovery materialised the relation")
	}
	_, mem := newTestServer(t, Config{})
	var want DiscoverResponse
	if code := postJSON(t, mem.URL+"/v1/discover", DiscoverRequest{Dataset: register(t, mem, grown).ID, Armstrong: true}, &want); code != http.StatusOK {
		t.Fatalf("materialised armstrong discover status %d", code)
	}
	if len(arm.Armstrong) == 0 || fmt.Sprint(arm.Armstrong) != fmt.Sprint(want.Armstrong) {
		t.Fatalf("streamed Armstrong rows %v, materialised %v", arm.Armstrong, want.Armstrong)
	}

	// Every other batch miner streams the snapshot as well.
	for _, algo := range []string{"depminer2", "fastfds", "tane"} {
		var got DiscoverResponse
		if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID, Algorithm: algo}, &got); code != http.StatusOK {
			t.Fatalf("%s discover status %d (%s)", algo, code, got.Error)
		}
		if !got.SnapshotStreamed || !neverViewed(t, s, reg.ID) {
			t.Fatalf("%s: streamed=%v, relation materialised=%v", algo, got.SnapshotStreamed, !neverViewed(t, s, reg.ID))
		}
		if !sameCover(got.FDs, fromScratchCover(t, grown)) {
			t.Fatalf("%s: streamed cover differs from reference:\n%v", algo, got.FDs)
		}
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	streams := st.Discoveries.SnapshotStreams
	if streams != 5 {
		t.Fatalf("SnapshotStreams = %d after five streamed discoveries", streams)
	}

	// A WAL record past the snapshot makes it incomplete: the next
	// discovery degrades to the materialised path and stays correct.
	if code, _ := appendCSV(t, ts.URL, reg.ID, "92,8,02,Ops,9\n"); code != http.StatusOK {
		t.Fatal("second append failed")
	}
	grown2 := appendRows(t, grown, [][]string{{"92", "8", "02", "Ops", "9"}})
	var after DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &after); code != http.StatusOK {
		t.Fatalf("post-append discover status %d", code)
	}
	if after.SnapshotStreamed {
		t.Fatal("discovery streamed a snapshot that no longer covers the dataset")
	}
	if !sameCover(after.FDs, fromScratchCover(t, grown2)) {
		t.Fatal("post-append cover differs from reference")
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Discoveries.SnapshotStreams != streams {
		t.Fatalf("SnapshotStreams moved to %d on non-streamed runs", st.Discoveries.SnapshotStreams)
	}
}

// TestSnapshotStreamedRecovery pins the boot path: after a clean
// shutdown (which compacts), a rebooted server discovers straight from
// the recovered snapshot without materialising the relation.
func TestSnapshotStreamedRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{DataDir: dir, SnapshotEvery: -1})
	base := relation.PaperExample()
	reg := register(t, ts1, base)
	if code, _ := appendCSV(t, ts1.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
		t.Fatal("append failed")
	}
	grown := appendRows(t, base, [][]string{{"90", "6", "99", "Research", "7"}})
	if err := s1.Shutdown(t.Context()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, ts2 := newTestServer(t, Config{DataDir: dir, SnapshotEvery: -1})
	defer s2.Shutdown(t.Context())
	var resp DiscoverResponse
	if code := postJSON(t, ts2.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK {
		t.Fatalf("discover on recovered dataset: %d (%s)", code, resp.Error)
	}
	if !resp.SnapshotStreamed {
		t.Fatal("recovered dataset did not stream its snapshot")
	}
	if !sameCover(resp.FDs, fromScratchCover(t, grown)) {
		t.Fatal("recovered streamed cover differs from reference")
	}
	if !neverViewed(t, s2, reg.ID) {
		t.Fatal("recovered streamed discovery materialised the relation")
	}
}

// TestShardServingIsNotASnapshotStream pins what snapshot_streams counts:
// discoveries fed by a streamed snapshot. A durable worker builds its
// shard plan from the same stream, but serving a shard runs no discovery.
func TestShardServingIsNotASnapshotStream(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir(), SnapshotEvery: -1})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	code, app := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n")
	if code != http.StatusOK {
		t.Fatal("append failed")
	}
	grown := appendRows(t, base, [][]string{{"90", "6", "99", "Research", "7"}})
	if err := s.store.CompactAll(); err != nil {
		t.Fatal(err)
	}
	stats := func() StatsResponse {
		t.Helper()
		var st StatsResponse
		if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
			t.Fatalf("stats status %d", code)
		}
		return st
	}

	req := wire.ShardRequest{Fingerprint: app.Fingerprint, TupleEnd: grown.Rows()}
	if code := postJSON(t, ts.URL+"/v1/shard/agree", req, nil); code != http.StatusOK {
		t.Fatalf("shard status %d", code)
	}
	st := stats()
	if st.Shard == nil || st.Shard.Served != 1 {
		t.Fatalf("shard not served: %+v", st.Shard)
	}
	if st.Discoveries.Total != 0 || st.Discoveries.SnapshotStreams != 0 {
		t.Fatalf("serving a shard counted as a discovery: total=%d snapshot_streams=%d",
			st.Discoveries.Total, st.Discoveries.SnapshotStreams)
	}

	var resp DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK {
		t.Fatalf("discover status %d (%s)", code, resp.Error)
	}
	if !resp.SnapshotStreamed {
		t.Fatal("discovery did not stream the complete snapshot")
	}
	if n := stats().Discoveries.SnapshotStreams; n != 1 {
		t.Fatalf("SnapshotStreams = %d after one streamed discovery, want 1", n)
	}
}

// TestSnapshotStreamedSharded combines the tentpole with the satellite:
// a coordinator whose dataset is snapshot-complete plans and shards from
// the stream; only the cold-fleet dataset push is allowed to rehydrate.
func TestSnapshotStreamedSharded(t *testing.T) {
	dir := t.TempDir()
	workers := newWorkerFleet(t, 2, Config{})
	s, ts := newCoordServer(t, workers, Config{DataDir: dir, SnapshotEvery: -1})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	if code, _ := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
		t.Fatal("append failed")
	}
	grown := appendRows(t, base, [][]string{{"90", "6", "99", "Research", "7"}})
	if err := s.store.CompactAll(); err != nil {
		t.Fatal(err)
	}

	code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 2})
	if code != http.StatusOK || resp.Partial {
		t.Fatalf("sharded streamed discover: code=%d partial=%v (%s)", code, resp.Partial, resp.Error)
	}
	if !resp.SnapshotStreamed {
		t.Fatal("coordinator did not plan from the snapshot stream")
	}
	if resp.ShardsRemote != 2 {
		t.Fatalf("remote shards = %d, want 2", resp.ShardsRemote)
	}
	if !sameCover(resp.FDs, fromScratchCover(t, grown)) {
		t.Fatal("sharded streamed cover differs from reference")
	}
	// The cold fleet forced one CSV push, which is the single permitted
	// rehydration point.
	if neverViewed(t, s, reg.ID) {
		t.Fatal("expected the cold-fleet push to have materialised the relation once")
	}
}

// TestPartitionPhaseTimedOnEveryPath runs one materialised and one
// streamed discovery: each must grow the partition phase total in
// /v1/stats (the source build is the partition phase on every path), and
// each must partition its source exactly once.
func TestPartitionPhaseTimedOnEveryPath(t *testing.T) {
	s, ts := newTestServer(t, Config{DataDir: t.TempDir(), SnapshotEvery: -1})
	var builds atomic.Int32
	faultinject.Set(faultinject.CorePartition, func() error { builds.Add(1); return nil })
	defer faultinject.Reset()
	partitionMS := func() float64 {
		var st StatsResponse
		if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
			t.Fatalf("stats status %d", code)
		}
		return st.Discoveries.PhaseTotalMS["partition"]
	}
	discoverFresh := func(seed uint64, compact bool) DiscoverResponse {
		t.Helper()
		r, err := datagen.Generate(datagen.Spec{Attrs: 6, Rows: 300, Correlation: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		reg := register(t, ts, r)
		if compact {
			// As in TestSnapshotStreamedDiscovery: an append folded into
			// a snapshot leaves one that covers the dataset by itself.
			row := []string{"n1", "n2", "n3", "n4", "n5", "n6"}
			if code, _ := appendCSV(t, ts.URL, reg.ID, strings.Join(row, ",")+"\n"); code != http.StatusOK {
				t.Fatal("append failed")
			}
			r = appendRows(t, r, [][]string{row})
			if err := s.store.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
		var resp DiscoverResponse
		builds.Store(0)
		if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK {
			t.Fatalf("discover status %d (%s)", code, resp.Error)
		}
		if n := builds.Load(); n != 1 {
			t.Fatalf("discovery (streamed=%v) partitioned its source %d times, want 1", resp.SnapshotStreamed, n)
		}
		if !sameCover(resp.FDs, fromScratchCover(t, r)) {
			t.Fatal("cover differs from reference")
		}
		return resp
	}

	// A registration is not yet folded into a snapshot: materialised.
	before := partitionMS()
	if resp := discoverFresh(1, false); resp.SnapshotStreamed {
		t.Fatal("uncompacted dataset streamed a snapshot")
	}
	mid := partitionMS()
	if mid <= before {
		t.Fatalf("materialised discovery left partition phase at %v ms (was %v)", mid, before)
	}

	// After compaction the snapshot covers the dataset: streamed.
	if resp := discoverFresh(2, true); !resp.SnapshotStreamed {
		t.Fatal("compacted dataset did not stream its snapshot")
	}
	if after := partitionMS(); after <= mid {
		t.Fatalf("streamed discovery left partition phase at %v ms (was %v)", after, mid)
	}
}

// TestColdPushRefusesContentNewerThanPlan races an append against a
// streamed, sharded discovery: the row lands after planning but before
// the cold worker's dataset push. Pushing the grown relation would
// register content the coordinator never planned against, so the push
// must fail and the shard be swept locally over the planned content.
func TestColdPushRefusesContentNewerThanPlan(t *testing.T) {
	workers := newWorkerFleet(t, 1, Config{})
	s, ts := newCoordServer(t, workers, Config{DataDir: t.TempDir(), SnapshotEvery: -1})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	if code, _ := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
		t.Fatal("append failed")
	}
	grown := appendRows(t, base, [][]string{{"90", "6", "99", "Research", "7"}})
	if err := s.store.CompactAll(); err != nil {
		t.Fatal(err)
	}
	d, _ := s.reg.get(reg.ID)
	var once sync.Once
	var appendErr error
	faultinject.Set(faultinject.ShardDispatch, func() error {
		once.Do(func() {
			_, _, appendErr = d.appendRows(context.Background(), [][]string{{"91", "7", "01", "Sales", "8"}})
		})
		return nil
	})
	defer faultinject.Reset()

	code, resp := discover(t, ts, DiscoverRequest{Dataset: reg.ID, Shards: 1})
	if code != http.StatusOK || resp.Partial {
		t.Fatalf("discover: code=%d partial=%v (%s)", code, resp.Partial, resp.Error)
	}
	if appendErr != nil {
		t.Fatalf("racing append: %v", appendErr)
	}
	if !resp.SnapshotStreamed {
		t.Fatal("coordinator did not plan from the snapshot stream")
	}
	if !sameCover(resp.FDs, fromScratchCover(t, grown)) {
		t.Fatal("cover differs from the planned (pre-append) content")
	}
	var wst, cst StatsResponse
	getJSON(t, workers[0]+"/v1/stats", &wst)
	if wst.Datasets != 0 {
		t.Fatalf("worker registered %d stray dataset(s)", wst.Datasets)
	}
	getJSON(t, ts.URL+"/v1/stats", &cst)
	if cst.Shard == nil || cst.Shard.DatasetsPushed != 0 {
		t.Fatalf("datasets pushed: %+v, want 0", cst.Shard)
	}
}

// TestDamagedSnapshotWarnsAndFallsBack flips one byte of a complete
// snapshot: the discovery must fall back to the materialised relation,
// stay correct, and say why in one Warn line.
func TestDamagedSnapshotWarnsAndFallsBack(t *testing.T) {
	var logs syncBuffer
	logger, err := obs.NewLogger(&logs, obs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{DataDir: t.TempDir(), SnapshotEvery: -1, Logger: logger})
	base := relation.PaperExample()
	reg := register(t, ts, base)
	if code, _ := appendCSV(t, ts.URL, reg.ID, "90,6,99,Research,7\n"); code != http.StatusOK {
		t.Fatal("append failed")
	}
	grown := appendRows(t, base, [][]string{{"90", "6", "99", "Research", "7"}})
	if err := s.store.CompactAll(); err != nil {
		t.Fatal(err)
	}
	d, _ := s.reg.get(reg.ID)
	path, complete := d.dur.SnapshotInfo()
	if !complete {
		t.Fatal("compacted snapshot does not cover the dataset")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var resp DiscoverResponse
	if code := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Dataset: reg.ID}, &resp); code != http.StatusOK {
		t.Fatalf("discover status %d (%s)", code, resp.Error)
	}
	if resp.SnapshotStreamed {
		t.Fatal("discovery streamed a damaged snapshot")
	}
	if !sameCover(resp.FDs, fromScratchCover(t, grown)) {
		t.Fatal("fallback cover differs from reference")
	}
	var warns []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "snapshot unreadable") {
			warns = append(warns, line)
		}
	}
	if len(warns) != 1 {
		t.Fatalf("want one snapshot warning, got %d:\n%s", len(warns), logs.String())
	}
	for _, want := range []string{"WARN", reg.ID, path, "checksum"} {
		if !strings.Contains(warns[0], want) {
			t.Errorf("warning lacks %q: %s", want, warns[0])
		}
	}
}
