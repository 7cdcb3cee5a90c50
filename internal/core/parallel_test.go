package core

// Pipeline-level determinism test for the parallel execution layer: a
// Result produced with Workers=N, swept locally or over explicit tuple
// shards served through ComputeShard, must be identical — FD cover,
// agree sets, maximal sets, per-attribute LHS families and the couple
// count — to the sequential reference (Workers=1).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/agree"
	"repro/internal/partition"
	"repro/internal/relation"
)

// resultFingerprint renders every deterministic field of a Result (all
// but the timings), and the LHS families derived from its cover, so two
// runs can be compared byte-for-byte.
func resultFingerprint(res *Result, arity int) string {
	return fmt.Sprintf("fds=%v ag=%v max=%v lhs=%v couples=%d",
		res.FDs, res.AgreeSets, res.MaxSets, lhsFamilies(res.FDs, arity), res.Couples)
}

func TestParallelDiscoverMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 25; iter++ {
		n := 2 + rng.Intn(5)
		rows := rng.Intn(40)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, rows)
			dom := 1 + rng.Intn(4)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(dom)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := agree.NewPlan(context.Background(), partition.NewDatabase(r), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []AgreeAlgorithm{AgreeCouples, AgreeIdentifiers} {
			seq, err := Discover(context.Background(), r, Options{Algorithm: algo, Armstrong: ArmstrongNone, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := resultFingerprint(seq, n)
			shards := 1 + rng.Intn(8)
			for _, workers := range []int{0, 2, 7} {
				for _, remote := range []agree.Remote{nil, &recordingRemote{plan: plan, n: shards}} {
					par, err := Run(context.Background(), Input{Source: r, Remote: remote}, Options{
						Algorithm: algo, Armstrong: ArmstrongNone, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if got := resultFingerprint(par, n); got != want {
						t.Fatalf("iter %d algo %v workers=%d shards=%d:\n got %s\nwant %s",
							iter, algo, workers, shards, got, want)
					}
				}
			}
		}
	}
}
