package fastfds_test

// The end-to-end tests run FastFDs as the library does: Dep-Miner's steps
// 1–2, then this package's depth-first search as step 3.

import (
	"context"
	"math/rand"
	"testing"

	depminer "repro"
	"repro/internal/attrset"
	"repro/internal/fd"
	"repro/internal/relation"
	"repro/internal/tane"
)

func fastFDs(ctx context.Context, r *relation.Relation) (*depminer.Result, error) {
	return depminer.Discover(ctx, r, depminer.Options{Algorithm: depminer.FastFDs})
}

func coversIdentical(a, b fd.Cover) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPaperExample(t *testing.T) {
	r := relation.PaperExample()
	res, err := fastFDs(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	want := fd.MineBrute(r)
	if !coversIdentical(res.FDs, want) {
		t.Errorf("FastFDs FDs =\n%s\nwant\n%s", res.FDs, want)
	}
	if res.DFSNodes == 0 || res.Stats.LHS <= 0 {
		t.Error("stats not populated")
	}
}

func TestConstantColumn(t *testing.T) {
	r, err := relation.FromRows([]string{"a", "b"},
		[][]string{{"1", "k"}, {"2", "k"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fastFDs(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	want := fd.Cover{{LHS: attrset.Empty(), RHS: 1}}
	if !coversIdentical(res.FDs, want) {
		t.Errorf("FDs = %v, want ∅ → B", res.FDs)
	}
}

func TestNoNontrivialFDs(t *testing.T) {
	// Two tuples disagreeing everywhere: each attribute's difference set
	// modulo A becomes empty → no FDs at all.
	r, err := relation.FromRows([]string{"a", "b"},
		[][]string{{"1", "x"}, {"2", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fastFDs(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	want := fd.MineBrute(r)
	if !coversIdentical(res.FDs, want) {
		t.Errorf("FDs = %v, want %v", res.FDs, want)
	}
}

func TestDegenerate(t *testing.T) {
	for _, rows := range [][][]string{{}, {{"1", "x"}}} {
		r, err := relation.FromRows([]string{"a", "b"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fastFDs(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		want := fd.MineBrute(r)
		if !coversIdentical(res.FDs, want) {
			t.Errorf("rows=%d: FDs = %v, want %v", len(rows), res.FDs, want)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fastFDs(ctx, relation.PaperExample()); err == nil {
		t.Error("cancelled context should abort")
	}
}

// TestPropertyThreeWayAgreement: FastFDs = Dep-Miner-brute = TANE on
// random relations, by exact canonical-cover equality.
func TestPropertyThreeWayAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 150; iter++ {
		n := 1 + rng.Intn(6)
		rows := rng.Intn(22)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, rows)
			dom := 1 + rng.Intn(6)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(dom)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		r = r.Deduplicate()
		want := fd.MineBrute(r)
		res, err := fastFDs(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !coversIdentical(res.FDs, want) {
			t.Fatalf("iter %d: FastFDs\n got %s\nwant %s\nrelation:\n%v",
				iter, res.FDs, want, r)
		}
		tn, err := tane.Run(context.Background(), r, tane.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !coversIdentical(res.FDs, tn.FDs) {
			t.Fatalf("iter %d: FastFDs and TANE disagree", iter)
		}
	}
}
