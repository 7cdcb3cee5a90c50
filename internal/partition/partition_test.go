package partition

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attrset"
	"repro/internal/relation"
)

// classesEqual compares two class lists ignoring order (both are
// normalised, so reflect.DeepEqual suffices after construction, but tests
// use this for clarity).
func classesEqual(a, b [][]int) bool {
	return reflect.DeepEqual(a, b)
}

// Paper Example 2: stripped partitions of the running example. Tuples are
// 0-based here (paper uses 1-based ids).
func TestSinglePaperExample(t *testing.T) {
	r := relation.PaperExample()
	want := [][][]int{
		{{0, 1}},                    // π̂_A
		{{0, 5}, {1, 6}, {2, 3}},    // π̂_B
		{{3, 4}},                    // π̂_C
		{{0, 5}, {1, 6}, {2, 3}},    // π̂_D
		{{0, 5}, {1, 6}, {2, 3, 4}}, // π̂_E
	}
	for a, w := range want {
		p := Single(r, a)
		if !classesEqual(p.Classes(), w) {
			t.Errorf("π̂_%c = %v, want %v", 'A'+a, p.Classes(), w)
		}
		if p.NumRows != 7 {
			t.Errorf("NumRows = %d", p.NumRows)
		}
	}
}

func TestPartitionStats(t *testing.T) {
	r := relation.PaperExample()
	pB := Single(r, 1)
	if pB.NumClasses() != 3 || pB.Size() != 6 {
		t.Errorf("π̂_B stats: classes=%d size=%d", pB.NumClasses(), pB.Size())
	}
	// Full partition π_B has 4 classes ({1,6},{2,7},{3,4},{5}).
	if pB.FullClassCount() != 4 {
		t.Errorf("FullClassCount = %d, want 4", pB.FullClassCount())
	}
	if pB.Couples() != 3 {
		t.Errorf("Couples = %d, want 3", pB.Couples())
	}
	pE := Single(r, 4)
	if pE.Couples() != 1+1+3 {
		t.Errorf("π̂_E couples = %d, want 5", pE.Couples())
	}
	// e(B) = (6-3)/7.
	if got := pB.Error(); got != 3.0/7.0 {
		t.Errorf("Error = %v", got)
	}
	pA := Single(r, 0)
	if pA.IsUnique() {
		t.Error("A is not a key (tuples 1,2 share empnum)")
	}
}

func TestFromClassesNormalisation(t *testing.T) {
	p := FromClasses(10, [][]int{{5}, {}, {4, 2}, {9, 1, 7}})
	want := [][]int{{1, 7, 9}, {2, 4}}
	if !classesEqual(p.Classes(), want) {
		t.Errorf("Classes = %v, want %v", p.Classes(), want)
	}
}

func TestEmptyAndUnique(t *testing.T) {
	r, err := relation.FromRows([]string{"k", "v"},
		[][]string{{"1", "x"}, {"2", "x"}, {"3", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	pk := Single(r, 0)
	if !pk.IsUnique() || pk.Error() != 0 || pk.Couples() != 0 {
		t.Error("key column should give empty stripped partition")
	}
	if pk.FullClassCount() != 3 {
		t.Errorf("FullClassCount = %d, want 3", pk.FullClassCount())
	}
}

func TestRefines(t *testing.T) {
	r := relation.PaperExample()
	pB := Single(r, 1)
	pD := Single(r, 3)
	pE := Single(r, 4)
	// B → D holds (identical partitions refine each other).
	if !pB.Refines(pD) || !pD.Refines(pB) {
		t.Error("π̂_B and π̂_D should refine each other")
	}
	// B → E holds, so π_B refines π_E, not conversely.
	if !pB.Refines(pE) {
		t.Error("π̂_B should refine π̂_E")
	}
	if pE.Refines(pB) {
		t.Error("π̂_E should not refine π̂_B (E → B fails)")
	}
	// π_{BC} refines everything it is a product of.
	pBC := Product(pB, Single(r, 2))
	if !pBC.Refines(pB) {
		t.Error("product must refine factor")
	}
}

func TestProductPaperExample(t *testing.T) {
	r := relation.PaperExample()
	pB := Single(r, 1)
	pC := Single(r, 2)
	// π̂_{BC}: classes of tuples agreeing on both depnum and year → {3,4}
	// agree on B={2,3}? tuples 2,3 (0-based) share B; years 92,98 differ →
	// singleton. Tuples 3,4 share C=98 but differ on B. So π̂_BC = ∅.
	pBC := Product(pB, pC)
	if !pBC.IsUnique() {
		t.Errorf("π̂_BC = %v, want empty", pBC.Classes())
	}
	// π̂_{BE} = π̂_B (B determines E).
	pBE := Product(pB, Single(r, 4))
	if !classesEqual(pBE.Classes(), pB.Classes()) {
		t.Errorf("π̂_BE = %v, want %v", pBE.Classes(), pB.Classes())
	}
	// Product with the empty-set partition (single class) is identity.
	pEmpty := Of(r, attrset.Empty())
	got := Product(pEmpty, pB)
	if !classesEqual(got.Classes(), pB.Classes()) {
		t.Errorf("π̂_∅ · π̂_B = %v, want %v", got.Classes(), pB.Classes())
	}
}

func TestProductCommutes(t *testing.T) {
	r := relation.PaperExample()
	for a := 0; a < r.Arity(); a++ {
		for b := 0; b < r.Arity(); b++ {
			ab := Product(Single(r, a), Single(r, b))
			ba := Product(Single(r, b), Single(r, a))
			if !classesEqual(ab.Classes(), ba.Classes()) {
				t.Errorf("product not commutative for %d,%d: %v vs %v",
					a, b, ab.Classes(), ba.Classes())
			}
		}
	}
}

// naivePartition computes π̂_X by grouping full tuples — the ground truth.
func naivePartition(r *relation.Relation, x attrset.Set) *Partition {
	groups := make(map[string][]int)
	for t := 0; t < r.Rows(); t++ {
		k := ""
		x.ForEach(func(a attrset.Attr) {
			k += r.Value(t, a) + "\x00"
		})
		groups[k] = append(groups[k], t)
	}
	var classes [][]int
	for _, g := range groups {
		classes = append(classes, g)
	}
	return FromClasses(r.Rows(), classes)
}

func TestOfMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(5)
		rows := rng.Intn(40)
		cols := make([][]int, n)
		for a := range cols {
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
		for bits := 0; bits < 1<<n; bits++ {
			var x attrset.Set
			for b := 0; b < n; b++ {
				if bits&(1<<b) != 0 {
					x.Add(b)
				}
			}
			got := Of(r, x)
			want := naivePartition(r, x)
			if !classesEqual(got.Classes(), want.Classes()) {
				t.Fatalf("Of(%v) = %v, want %v (rows=%d)", x, got.Classes(), want.Classes(), rows)
			}
		}
	}
}

func TestProberReuse(t *testing.T) {
	r := relation.PaperExample()
	pr := NewProber(r.Rows())
	pB, pD := Single(r, 1), Single(r, 3)
	first := pr.Product(pB, pD)
	second := pr.Product(pB, pD)
	if !classesEqual(first.Classes(), second.Classes()) {
		t.Error("prober reuse changed result")
	}
	// Growing capacity on demand.
	small := NewProber(1)
	got := small.Product(pB, pD)
	if !classesEqual(got.Classes(), first.Classes()) {
		t.Error("prober capacity growth broken")
	}
}

func TestDatabase(t *testing.T) {
	r := relation.PaperExample()
	db := NewDatabase(r)
	if db.Arity() != 5 || db.NumRows != 7 {
		t.Fatalf("db shape %d/%d", db.Arity(), db.NumRows)
	}
	if !classesEqual(db.Attr[2].Classes(), [][]int{{3, 4}}) {
		t.Errorf("π̂_C = %v", db.Attr[2].Classes())
	}
}
