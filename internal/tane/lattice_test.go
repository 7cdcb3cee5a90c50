package tane

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attrset"
	"repro/internal/datagen"
	"repro/internal/pstore"
	"repro/internal/relation"
)

// TestPinnedLattice pins, at Workers 1, the lattice TANE and the key
// search walk and what the partition store sees on the way. Both
// searches share one level loop, so any drift in the join, the subset
// prune or the level bookkeeping shows here as a changed node count or
// store counter.
func TestPinnedLattice(t *testing.T) {
	gen, err := datagen.Generate(datagen.Spec{Attrs: 15, Rows: 2000, Correlation: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                   string
		r                      *relation.Relation
		keys, keyNodes         int
		keyStats               pstore.Stats
		taneNodes, levels, fds int
		taneStats              pstore.Stats
	}{
		{"paper example", relation.PaperExample(),
			6, 16, pstore.Stats{Hits: 2, PeakBytes: 896, RootBytes: 528},
			15, 2, 14, pstore.Stats{PeakBytes: 776, RootBytes: 648}},
		{"datagen 15x2000 c=0.3", gen,
			443, 562, pstore.Stats{Hits: 884, PeakBytes: 42808, RootBytes: 262412},
			562, 3, 5317, pstore.Stats{Hits: 884, PeakBytes: 42808, RootBytes: 278476}},
	} {
		k, err := Keys(context.Background(), tc.r, KeysOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(k.Keys) != tc.keys || k.LatticeNodes != tc.keyNodes || k.Stats != tc.keyStats {
			t.Errorf("%s: keys %d, nodes %d, stats %+v; want %d, %d, %+v",
				tc.name, len(k.Keys), k.LatticeNodes, k.Stats, tc.keys, tc.keyNodes, tc.keyStats)
		}
		res := run(t, tc.r, Options{Workers: 1})
		if res.LatticeNodes != tc.taneNodes || res.Levels != tc.levels || len(res.FDs) != tc.fds || res.Stats != tc.taneStats {
			t.Errorf("%s: TANE nodes %d, levels %d, FDs %d, stats %+v; want %d, %d, %d, %+v",
				tc.name, res.LatticeNodes, res.Levels, len(res.FDs), res.Stats,
				tc.taneNodes, tc.levels, tc.fds, tc.taneStats)
		}
	}
}

// TestJoinCanonicalOrder feeds generateNextLevel random survivor sets and
// checks that every level it generates is strictly increasing under
// CompareLex — the order both searches rely on without sorting — and
// holds exactly the Apriori candidates: the unions of two survivors all
// of whose one-smaller subsets survived.
func TestJoinCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for iter := 0; iter < 40; iter++ {
		n := 2 + rng.Intn(8)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, 24)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(4)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		sr, level, err := newSearch(r, 1+rng.Intn(3), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; len(level) > 0; k++ {
			var survivors []*node
			in := map[attrset.Set]bool{}
			for _, nd := range level {
				if rng.Intn(5) > 0 {
					survivors = append(survivors, nd)
					in[nd.set] = true
				}
			}
			next, _, err := sr.generateNextLevel(context.Background(), survivors, k+1)
			if err != nil {
				t.Fatal(err)
			}
			want := map[attrset.Set]bool{}
			for i, a := range survivors {
				for _, b := range survivors[i+1:] {
					u, ok := a.set.Union(b.set), true
					if u.Len() != k+1 {
						continue
					}
					u.ForEach(func(x attrset.Attr) { ok = ok && in[u.Without(x)] })
					if ok {
						want[u] = true
					}
				}
			}
			if len(next) != len(want) {
				t.Fatalf("iter %d level %d: %d candidates, want %d", iter, k+1, len(next), len(want))
			}
			for i, nd := range next {
				if !want[nd.set] {
					t.Fatalf("iter %d level %d: unexpected candidate %v", iter, k+1, nd.set)
				}
				if i > 0 && next[i-1].set.CompareLex(nd.set) >= 0 {
					t.Fatalf("iter %d level %d: %v does not precede %v", iter, k+1, next[i-1].set, nd.set)
				}
			}
			level = next
		}
	}
}
