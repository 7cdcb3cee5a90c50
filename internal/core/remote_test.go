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

func (r *recordingRemote) Shards() int { return r.n }

func (r *recordingRemote) Fetch(ctx context.Context, _ int, sh agree.Shard, v agree.Variant, sp *extsort.Spiller) (int, error) {
	r.mu.Lock()
	r.variants = append(r.variants, v)
	r.mu.Unlock()
	var buf bytes.Buffer
	rw := extsort.NewRunWriter(&buf)
	res, err := r.plan.ComputeShard(ctx, sh, v, agree.Options{Workers: 1}, rw.Write)
	if err != nil {
		return 0, err
	}
	if err := rw.Close(); err != nil {
		return 0, err
	}
	pr, err := sp.AdoptRun(&buf, 0)
	if err != nil {
		return 0, err
	}
	pr.Commit()
	return res.Couples, nil
}

// TestRemoteFetchesRunVariant: core maps each miner to its agree
// variant once, so every shard of a fanned-out run is fetched as that
// variant, and the fanned-out cover equals the single-node one.
func TestRemoteFetchesRunVariant(t *testing.T) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 5, Rows: 70, Correlation: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo AgreeAlgorithm
		want agree.Variant
	}{
		{AgreeCouples, agree.VariantCouples},
		{AgreeIdentifiers, agree.VariantIdentifiers},
		{FastFDs, agree.VariantIdentifiers},
	}
	for _, tc := range cases {
		t.Run(tc.algo.String(), func(t *testing.T) {
			opts := Options{Algorithm: tc.algo, Armstrong: ArmstrongNone}
			want, err := Discover(context.Background(), r, opts)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := agree.NewPlan(context.Background(), partition.NewDatabase(r), 1)
			if err != nil {
				t.Fatal(err)
			}
			remote := &recordingRemote{plan: plan, n: 3}
			got, err := Run(context.Background(), Input{Source: r, Remote: remote}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(remote.variants) != 3 {
				t.Fatalf("%d fetches, want 3", len(remote.variants))
			}
			for i, v := range remote.variants {
				if v != tc.want {
					t.Fatalf("fetch %d asked for %s, want %s", i, v, tc.want)
				}
			}
			if fmt.Sprint(got.FDs) != fmt.Sprint(want.FDs) || got.Couples != want.Couples {
				t.Fatal("fanned-out cover or couple count differs from the single-node one")
			}
		})
	}
}
