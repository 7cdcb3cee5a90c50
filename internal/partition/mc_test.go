package partition

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/attrset"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// MaximalClasses computes MC = Max⊆{c ∈ π̂_A | π̂_A ∈ r̂} as a sorted
// class list: the test oracle for NewCoupleSpace's gated MC test. A
// class c of π̂_A is dominated exactly
// when all its tuples fall in one common class c' of some π̂_B with
// |c'| > |c|; equal-size coincidences (c = c') are kept once, for the
// smallest attribute index. The returned classes are views into the
// partitions' row stores.
func (db *Database) MaximalClasses() [][]int {
	n := len(db.Attr)
	// tupleClass[b][t] = index of t's class within π̂_b, or -1.
	tupleClass := make([][]int32, n)
	for b, p := range db.Attr {
		tc := make([]int32, db.NumRows)
		for i := range tc {
			tc[i] = -1
		}
		for i, nc := 0, p.NumClasses(); i < nc; i++ {
			for _, t := range p.Class(i) {
				tc[t] = int32(i)
			}
		}
		tupleClass[b] = tc
	}

	var out [][]int
	for a, p := range db.Attr {
		for ci, nc := 0, p.NumClasses(); ci < nc; ci++ {
			c := p.Class(ci)
			dominated := false
			for b := 0; b < n && !dominated; b++ {
				if b == a {
					continue
				}
				tc := tupleClass[b]
				id := tc[c[0]]
				if id < 0 {
					continue
				}
				same := true
				for _, t := range c[1:] {
					if tc[t] != id {
						same = false
						break
					}
				}
				if !same {
					continue
				}
				other := db.Attr[b].Class(int(id))
				if len(other) > len(c) || (len(other) == len(c) && b < a) {
					dominated = true
				}
			}
			if !dominated {
				out = append(out, c)
			}
		}
	}
	slices.SortFunc(out, cmpInts)
	return out
}

func cmpInts(a, b []int) int { return slices.Compare(a, b) }

// Paper Example 4: MC = {{1,2},{1,6},{2,7},{3,4,5}} (1-based) =
// {{0,1},{0,5},{1,6},{2,3,4}} (0-based).
func TestMaximalClassesPaperExample(t *testing.T) {
	r := relation.PaperExample()
	db := NewDatabase(r)
	mc := db.MaximalClasses()
	want := [][]int{{0, 1}, {0, 5}, {1, 6}, {2, 3, 4}}
	if !classesEqual(mc, want) {
		t.Errorf("MC = %v, want %v", mc, want)
	}
}

func TestMaximalClassesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(5)
		rows := rng.Intn(30)
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
		db := NewDatabase(r)
		mc := db.MaximalClasses()
		// 1. Every class of every stripped partition is ⊆ some MC class.
		for _, p := range db.Attr {
			for _, c := range classes(p) {
				if !coveredBy(c, mc) {
					t.Fatalf("class %v not covered by MC %v", c, mc)
				}
			}
		}
		// 2. MC is an antichain.
		for i := range mc {
			for j := range mc {
				if i != j && subsetInts(mc[i], mc[j]) {
					t.Fatalf("MC not antichain: %v ⊆ %v", mc[i], mc[j])
				}
			}
		}
		// 3. Every MC class is an actual class of some stripped partition.
		for _, c := range mc {
			found := false
			for _, p := range db.Attr {
				for _, pc := range classes(p) {
					if reflect.DeepEqual(c, pc) {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("MC class %v not in any partition", c)
			}
		}
	}
}

func coveredBy(c []int, mc [][]int) bool {
	for _, m := range mc {
		if subsetInts(c, m) {
			return true
		}
	}
	return false
}

// subsetInts reports a ⊆ b for sorted slices.
func subsetInts(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

func TestMaximalClassesDedupAcrossAttrs(t *testing.T) {
	// B and D have identical partitions in the paper example; MC must not
	// contain duplicates.
	r := relation.PaperExample()
	mc := NewDatabase(r).MaximalClasses()
	seen := map[string]bool{}
	for _, c := range mc {
		k := ""
		for _, t := range c {
			k += string(rune(t)) + ","
		}
		if seen[k] {
			t.Fatalf("duplicate MC class %v", c)
		}
		seen[k] = true
	}
	sorted := slices.IsSortedFunc(mc, cmpInts)
	if !sorted {
		t.Error("MC not in canonical order")
	}
}

// mcRelation draws a relation for the MC tests: up to 6 attributes over
// up to 80 rows, whose columns are random, constant, identical to an
// earlier column (the equal-size tie-break), a coarsening of an earlier
// column, or a copy of one with a few values moved. Coarsenings nest:
// their classes are unions of the earlier column's, so hierarchies of
// dominated classes arise, big enough to pass the gate. Moved values
// make classes that hold all of another class but one tuple.
func mcRelation(t *testing.T, rng *rand.Rand) *relation.Relation {
	t.Helper()
	n, rows := 1+rng.Intn(6), rng.Intn(80)
	cols := make([][]int, n)
	for a := range cols {
		cols[a] = make([]int, rows)
		switch k := rng.Intn(9); {
		case k == 0: // constant
		case k == 1 && a > 0: // identical
			copy(cols[a], cols[rng.Intn(a)])
		case k == 2 && a > 0: // a few values moved
			copy(cols[a], cols[rng.Intn(a)])
			for range 1 + rng.Intn(3) {
				if rows > 0 {
					cols[a][rng.Intn(rows)] = rng.Intn(8)
				}
			}
		case k <= 5 && a > 0: // nested hierarchy
			src, d := cols[rng.Intn(a)], 2+rng.Intn(3)
			for i := range cols[a] {
				cols[a][i] = src[i] / d
			}
		default:
			dom := 1 + rng.Intn(24)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(dom)
			}
		}
	}
	r, err := relation.FromCodes(make([]string, n), cols)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// keptClasses returns, per attribute, which classes cs keeps, failing
// when a class is kept in some of its tuples' lists but not in others,
// or entered in the list of the tuple that opens it.
func keptClasses(t *testing.T, cs *CoupleSpace) [][]bool {
	t.Helper()
	kept := make([][]bool, cs.db.Arity())
	for a, p := range cs.db.Attr {
		kept[a] = make([]bool, p.NumClasses())
		for ci := range kept[a] {
			start := cs.base[a] + p.offs[ci]
			for i, u := range p.Class(ci)[1:] {
				in := slices.Contains(cs.list(u), start)
				if i > 0 && in != kept[a][ci] {
					t.Fatalf("class %d of attribute %d kept for some tuples only", ci, a)
				}
				kept[a][ci] = in
			}
			if slices.Contains(cs.list(p.Class(ci)[0]), start) {
				t.Fatalf("class %d of attribute %d listed for its first tuple", ci, a)
			}
		}
	}
	return kept
}

// TestCoupleSpaceKeepsOracleMC: the gated table keeps every oracle MC
// class, for the lowest attribute that has it; a class big enough to be
// tested is kept only when it is in MC, for that lowest attribute; and
// the kept classes' walk is at most the MC walk plus |R| steps per
// untested class outside MC (or a repeat of an MC class). Relations
// include nested hierarchies, identical columns and constant ones; the
// table is identical at every worker count.
func TestCoupleSpaceKeepsOracleMC(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ctx := context.Background()
	for iter := 0; iter < 300; iter++ {
		db := NewDatabase(mcRelation(t, rng))
		cs, err := NewCoupleSpace(ctx, db, 1)
		if err != nil {
			t.Fatal(err)
		}
		kept := keptClasses(t, cs)
		mc := db.MaximalClasses()
		inMC := map[string]bool{}
		mcWalk := 0
		for _, c := range mc {
			inMC[fmt.Sprint(c)] = true
			mcWalk += len(c) * (len(c) - 1) / 2
			a := firstAttrWith(db, c)
			ci := slices.IndexFunc(classes(db.Attr[a]), func(x []int) bool { return slices.Equal(x, c) })
			if !kept[a][ci] {
				t.Fatalf("iter %d: MC class %v of attribute %d not kept", iter, c, a)
			}
		}
		walk, extra := 0, 0
		for a, p := range db.Attr {
			for ci, k := range kept[a] {
				if !k {
					continue
				}
				c := p.Class(ci)
				walk += len(c) * (len(c) - 1) / 2
				isMC := inMC[fmt.Sprint(c)] && firstAttrWith(db, c) == a
				switch {
				case len(c)*(len(c)-1)/2 > db.Arity() && !isMC:
					t.Fatalf("iter %d: tested class %v of attribute %d kept outside MC", iter, c, a)
				case !isMC:
					extra++
				}
			}
		}
		if walk > mcWalk+extra*db.Arity() {
			t.Fatalf("iter %d: walk %d > MC walk %d + |R|=%d × %d untested", iter, walk, mcWalk, db.Arity(), extra)
		}
		for _, workers := range []int{2, 5} {
			par, err := NewCoupleSpace(ctx, db, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(par.starts, cs.starts) || !slices.Equal(par.off, cs.off) || !slices.Equal(par.cost, cs.cost) {
				t.Fatalf("iter %d: table at %d workers differs from the sequential one", iter, workers)
			}
		}
	}
}

// TestCoupleSpacePartnersMatchOracle: walking every tuple meets
// exactly the earlier tuples sharing an oracle MC class with it, once
// each.
func TestCoupleSpacePartnersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 300; iter++ {
		db := NewDatabase(mcRelation(t, rng))
		cs, err := NewCoupleSpace(context.Background(), db, 1+iter%3)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs.Cost()) != db.NumRows+1 || cs.Cost()[0] != 0 {
			t.Fatalf("iter %d: cost %v for %d rows", iter, cs.Cost(), db.NumRows)
		}
		want := map[[2]int]bool{}
		for _, c := range db.MaximalClasses() {
			for i, u := range c {
				for _, v := range c[:i] {
					want[[2]int{v, u}] = true
				}
			}
		}
		var w Walker[attrset.Set]
		got := map[[2]int]bool{}
		for u := range db.NumRows {
			for _, v := range w.Walk(cs, u) {
				k := [2]int{int(v), u}
				if int(v) >= u || got[k] {
					t.Fatalf("iter %d: partner %d of %d is later or repeated", iter, v, u)
				}
				got[k] = true
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: %d couples, oracle MC has %d", iter, len(got), len(want))
		}
	}
}

// BenchmarkAblation_MaximalClasses isolates the gated MC table (Lemma
// 1's enabler) from the rest of step 1: the whole couple space build,
// sequentially.
func BenchmarkAblation_MaximalClasses(b *testing.B) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 20, Rows: 5000, Correlation: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db := NewDatabase(r)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewCoupleSpace(context.Background(), db, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// firstAttrWith returns the lowest attribute whose stripped partition has
// class c.
func firstAttrWith(db *Database, c []int) int {
	for a, p := range db.Attr {
		for _, pc := range classes(p) {
			if slices.Equal(pc, c) {
				return a
			}
		}
	}
	return -1
}
