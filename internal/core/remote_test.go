package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/agree"
	"repro/internal/datagen"
	"repro/internal/extsort"
	"repro/internal/partition"
)

// recordingRemote serves every shard from its own plan and records the
// variant each Fetch asked for.
type recordingRemote struct {
	plan *agree.Plan
	n    int

	mu       sync.Mutex
	variants []agree.Variant
}

func (r *recordingRemote) Shards(int) int { return r.n }

func (r *recordingRemote) Fetch(ctx context.Context, _ int, sh agree.Shard, v agree.Variant, sp *extsort.Spiller) error {
	r.mu.Lock()
	r.variants = append(r.variants, v)
	r.mu.Unlock()
	var buf bytes.Buffer
	rw := extsort.NewRunWriter(&buf)
	if _, err := r.plan.ComputeShard(ctx, sh, v, agree.Options{Workers: 1}, rw.Write); err != nil {
		return err
	}
	if err := rw.Close(); err != nil {
		return err
	}
	pr, err := sp.AdoptRun(&buf, 0)
	if err != nil {
		return err
	}
	pr.Commit()
	return nil
}

// TestDegradedRunFetchesIdentifiers: core decides the Algorithm 2 → 3
// degradation once, from the plan's couple count, so every shard of a
// fanned-out run is fetched as Algorithm 3 and the run records one note.
func TestDegradedRunFetchesIdentifiers(t *testing.T) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 5, Rows: 70, Correlation: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Armstrong: ArmstrongNone, MaxCouples: 1}
	want, err := Discover(context.Background(), r, opts)
	if err != nil {
		t.Fatal(err)
	}
	remote := &recordingRemote{plan: agree.NewPlan(partition.NewDatabase(r)), n: 3}
	got, err := Run(context.Background(), Input{Source: r, Remote: remote}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.variants) != 3 {
		t.Fatalf("%d fetches, want 3", len(remote.variants))
	}
	for i, v := range remote.variants {
		if v != agree.VariantIdentifiers {
			t.Fatalf("fetch %d asked for %s, want the degraded identifier scan", i, v)
		}
	}
	if len(got.Notes) != 1 || fmt.Sprint(got.Notes) != fmt.Sprint(want.Notes) {
		t.Fatalf("notes %q, want the one single-node note %q", got.Notes, want.Notes)
	}
	if fmt.Sprint(got.FDs) != fmt.Sprint(want.FDs) {
		t.Fatal("fanned-out cover differs from the single-node one")
	}
}
