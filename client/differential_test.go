// An external test package: internal/server imports repro/client for
// shard dispatch, so a live-server test of the client must sit outside
// the package to avoid an import cycle. The root package's FuzzPlan
// compares covers obtained through the SDK with a from-scratch run.
package client_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/wire"
)

// liveServer boots a real internal/server behind httptest and returns a
// client for it plus the listener (for raw-HTTP assertions).
func liveServer(t *testing.T, cfg server.Config, opts ...client.Option) (*client.Client, *httptest.Server) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return client.New(ts.URL, opts...), ts
}

// fromScratchCover runs the reference pipeline directly and renders the
// cover exactly as the server does (fd.FD.Names on the schema).
func fromScratchCover(t *testing.T, r *relation.Relation) []string {
	t.Helper()
	res, err := core.Discover(context.Background(), r, core.Options{Armstrong: core.ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res.FDs))
	for i, f := range res.FDs {
		out[i] = f.Names(r.Names())
	}
	return out
}

// TestClientFollowsAsyncTransparently: with a sync row limit of 1 the
// server answers 202 to a plain Discover; the client must poll the job
// to completion behind the single blocking call.
func TestClientFollowsAsyncTransparently(t *testing.T) {
	c, _ := liveServer(t, server.Config{SyncRowLimit: 1}, client.WithPollInterval(5*time.Millisecond))
	ctx := context.Background()

	base := relation.PaperExample()
	var csvBuf bytes.Buffer
	if err := base.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	reg, err := c.Register(ctx, "", csvBuf.Bytes())
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	resp, err := c.Discover(ctx, wire.DiscoverRequest{Dataset: reg.ID})
	if err != nil {
		t.Fatalf("discover (async path): %v", err)
	}
	if want := fromScratchCover(t, base); !slices.Equal(resp.FDs, want) {
		t.Fatalf("transparent async: cover %v, want %v", resp.FDs, want)
	}
}

// TestDiscoverRejectsUnknownFields: the server strict-decodes discover
// requests, so a misspelled knob is a 400 over the same wire the SDK
// uses (the SDK itself cannot emit one — its requests are typed).
func TestDiscoverRejectsUnknownFields(t *testing.T) {
	_, ts := liveServer(t, server.Config{})
	resp, err := http.Post(ts.URL+"/v1/discover", "application/json",
		strings.NewReader(`{"dataset":"ds-x","budgetunits":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}
