package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// MaximalClasses computes MC = Max⊆{c ∈ π̂_A | π̂_A ∈ r̂} as a sorted
// class list: the test oracle for maximalClassIndex, whose tables the
// couple generation reads instead. A class c of π̂_A is dominated exactly
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
			for _, c := range p.Classes() {
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
				for _, pc := range p.Classes() {
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

// indexedClasses lists the classes maximalClassIndex keeps, sorted like
// the oracle, and the attribute each was kept for.
func indexedClasses(t *testing.T, db *Database) (classes [][]int, attrs map[string]int) {
	t.Helper()
	idx, n := db.maximalClassIndex(), db.Arity()
	attrs = map[string]int{}
	for a, p := range db.Attr {
		for ci, nc := 0, p.NumClasses(); ci < nc; ci++ {
			c := p.Class(ci)
			for _, u := range c {
				if idx[u*n+a] != int32(ci) && idx[u*n+a] != -1 {
					t.Fatalf("tuple %d of class %d of attribute %d maps to %d", u, ci, a, idx[u*n+a])
				}
			}
			if idx[c[0]*n+a] == int32(ci) {
				classes = append(classes, c)
				attrs[fmt.Sprint(c)] = a
			}
		}
	}
	slices.SortFunc(classes, cmpInts)
	return classes, attrs
}

// firstAttrWith returns the lowest attribute whose stripped partition has
// class c.
func firstAttrWith(db *Database, c []int) int {
	for a, p := range db.Attr {
		for _, pc := range p.Classes() {
			if slices.Equal(pc, c) {
				return a
			}
		}
	}
	return -1
}

// TestMaximalClassIndexMatchesOracle: the tables keep exactly the oracle's
// MC, each class once and for the lowest attribute that has it (the
// equal-size tie-break), and mark or unmark a class as a whole, on random
// relations that include identical columns and constant ones.
func TestMaximalClassIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(6)
		rows := rng.Intn(40)
		cols := make([][]int, n)
		for a := range cols {
			if a > 0 && rng.Intn(4) == 0 {
				cols[a] = slices.Clone(cols[rng.Intn(a)])
				continue
			}
			cols[a] = make([]int, rows)
			dom := 1 + rng.Intn(5)
			for i := range cols[a] {
				cols[a][i] = rng.Intn(dom)
			}
		}
		r, err := relation.FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		db := NewDatabase(r)
		got, attrs := indexedClasses(t, db)
		want := db.MaximalClasses()
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("iter %d: index keeps %v, oracle MC %v", iter, got, want)
		}
		for _, c := range got {
			if a, first := attrs[fmt.Sprint(c)], firstAttrWith(db, c); a != first {
				t.Fatalf("iter %d: class %v kept for attribute %d, want the lowest, %d", iter, c, a, first)
			}
		}
	}
}

// TestMaximalPartnersMatchOracle: every tuple's partner list holds, once
// each, exactly the earlier tuples sharing an oracle MC class with it.
func TestMaximalPartnersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 100; iter++ {
		r := randRelation(rng)
		db := NewDatabase(r)
		partners, ends := db.MaximalPartners()
		if len(ends) != r.Rows() {
			t.Fatalf("iter %d: %d ends for %d rows", iter, len(ends), r.Rows())
		}
		want := map[[2]int]bool{}
		for _, c := range db.MaximalClasses() {
			for i, u := range c {
				for _, v := range c[:i] {
					want[[2]int{v, u}] = true
				}
			}
		}
		got, from := map[[2]int]bool{}, 0
		for u, end := range ends {
			for _, v := range partners[from:end] {
				k := [2]int{int(v), u}
				if v >= int32(u) || got[k] {
					t.Fatalf("iter %d: partner %d of %d is later or repeated", iter, v, u)
				}
				got[k] = true
			}
			from = end
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: %d couples, oracle MC has %d", iter, len(got), len(want))
		}
	}
}

// BenchmarkAblation_MaximalClasses isolates the MC test (Lemma 1's
// enabler) from the rest of step 1.
func BenchmarkAblation_MaximalClasses(b *testing.B) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 20, Rows: 5000, Correlation: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	db := NewDatabase(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(db.maximalClassIndex()) != 20*5000 {
			b.Fatal("no tables")
		}
	}
}
