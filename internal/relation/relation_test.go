package relation

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/attrset"
)

func TestFromRowsBasics(t *testing.T) {
	r := PaperExample()
	if r.Rows() != 7 {
		t.Fatalf("Rows = %d, want 7", r.Rows())
	}
	if r.Arity() != 5 {
		t.Fatalf("Arity = %d, want 5", r.Arity())
	}
	if r.Schema() != attrset.Universe(5) {
		t.Error("Schema mismatch")
	}
	if r.Name(3) != "depname" {
		t.Errorf("Name(3) = %q", r.Name(3))
	}
	if r.Value(0, 3) != "Biochemistry" || r.Value(4, 3) != "Geophysics" {
		t.Error("Value lookup wrong")
	}
	// Tuples 0 and 5 share depnum=1, depname=Biochemistry, mgr=5.
	if r.Code(0, 1) != r.Code(5, 1) || r.Code(0, 3) != r.Code(5, 3) {
		t.Error("dictionary codes should match for equal values")
	}
	if r.Code(0, 0) == r.Code(2, 0) {
		t.Error("distinct values must have distinct codes")
	}
}

func TestDomainSizes(t *testing.T) {
	r := PaperExample()
	// From the paper's Example 13: |π_A| = 6, |π_B| = 4, |π_C| = 6,
	// |π_D| = 4, |π_E| = 3 (values 5, 12, 2).
	want := []int{6, 4, 6, 4, 3}
	for a, w := range want {
		if got := r.DomainSize(a); got != w {
			t.Errorf("DomainSize(%c) = %d, want %d", 'A'+a, got, w)
		}
	}
}

func TestAgreeSetDirect(t *testing.T) {
	r := PaperExample()
	cases := []struct {
		ti, tj int
		want   string
	}{
		{0, 1, "A"},
		{0, 5, "BDE"},
		{1, 6, "BDE"},
		{2, 3, "BDE"},
		{2, 4, "E"},
		{3, 4, "CE"},
		{0, 2, "∅"},
	}
	for _, c := range cases {
		if got := r.AgreeSet(c.ti, c.tj).String(); got != c.want {
			t.Errorf("ag(%d,%d) = %s, want %s", c.ti+1, c.tj+1, got, c.want)
		}
	}
	// Agree is consistent with AgreeSet.
	for _, c := range cases {
		s, _ := attrset.Parse(strings.ReplaceAll(c.want, "∅", ""))
		if !r.Agree(c.ti, c.tj, s) {
			t.Errorf("Agree(%d,%d,%s) = false", c.ti, c.tj, c.want)
		}
		if !s.Contains(0) && !r.Agree(c.ti, c.tj, s) {
			t.Errorf("Agree subset check failed")
		}
	}
	if r.Agree(0, 2, attrset.New(0)) {
		t.Error("tuples 1,3 disagree on A")
	}
}

func TestSatisfiesPaperFDs(t *testing.T) {
	r := PaperExample()
	holds := []struct {
		lhs string
		rhs int
	}{
		{"BC", 0}, {"CD", 0}, {"AC", 1}, {"AE", 1}, {"D", 1},
		{"AB", 2}, {"AD", 2}, {"AE", 2}, {"AC", 3}, {"AE", 3},
		{"B", 3}, {"B", 4}, {"C", 4}, {"D", 4},
	}
	for _, fd := range holds {
		x, _ := attrset.Parse(fd.lhs)
		if !r.Satisfies(x, fd.rhs) {
			t.Errorf("r should satisfy %s → %c", fd.lhs, 'A'+fd.rhs)
		}
	}
	fails := []struct {
		lhs string
		rhs int
	}{
		{"B", 0}, {"C", 0}, {"D", 0}, {"E", 0}, {"BD", 0}, {"BE", 0},
		{"A", 1}, {"C", 1}, {"E", 1}, {"A", 2}, {"B", 2}, {"E", 3}, {"A", 4},
	}
	for _, fd := range fails {
		x, _ := attrset.Parse(fd.lhs)
		if r.Satisfies(x, fd.rhs) {
			t.Errorf("r should NOT satisfy %s → %c", fd.lhs, 'A'+fd.rhs)
		}
	}
	// Trivial and empty-lhs cases.
	if !r.Satisfies(attrset.New(0), 0) {
		t.Error("A → A must hold")
	}
	if r.Satisfies(attrset.Empty(), 0) {
		t.Error("∅ → A must fail when column A is not constant")
	}
}

func TestSatisfiesEmptyLHSConstantColumn(t *testing.T) {
	r, err := FromRows([]string{"x", "y"}, [][]string{{"1", "k"}, {"2", "k"}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Satisfies(attrset.Empty(), 1) {
		t.Error("∅ → y must hold for constant column")
	}
	if r.Satisfies(attrset.Empty(), 0) {
		t.Error("∅ → x must fail")
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows([]string{"a", "b"}, [][]string{{"1"}}); err == nil {
		t.Error("ragged row should error")
	}
	names := make([]string, attrset.MaxAttrs+1)
	if _, err := FromRows(names, nil); err == nil {
		t.Error("oversized schema should error")
	}
}

func TestFromCodes(t *testing.T) {
	r, err := FromCodes([]string{"a", "b"}, [][]int{{5, 5, 9}, {1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 3 || r.Arity() != 2 {
		t.Fatalf("shape %dx%d", r.Rows(), r.Arity())
	}
	if r.Code(0, 0) != r.Code(1, 0) || r.Code(0, 0) == r.Code(2, 0) {
		t.Error("dense re-encoding broken")
	}
	if r.Value(2, 0) != "9" {
		t.Errorf("Value = %q, want 9", r.Value(2, 0))
	}
	if _, err := FromCodes([]string{"a"}, [][]int{{1}, {2}}); err == nil {
		t.Error("column count mismatch should error")
	}
	if _, err := FromCodes([]string{"a", "b"}, [][]int{{1, 2}, {1}}); err == nil {
		t.Error("ragged columns should error")
	}
}

func TestFromEncoded(t *testing.T) {
	names := []string{"a", "b"}
	rows := [][]string{{"x", "p"}, {"x", "q"}, {"y", "p"}}
	// The dictionaries are prefixes of longer ones, as a store's are.
	dictA, dictB := []string{"x", "y", "z"}, []string{"p", "q", "r"}
	r, err := FromEncoded(names, [][]int{{0, 0, 1}, {0, 1, 0}}, [][]string{dictA[:2], dictB[:2]})
	if err != nil {
		t.Fatal(err)
	}
	want, err := FromRows(names, rows)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != want.String() {
		t.Fatalf("FromEncoded gave\n%v\nwant\n%v", r, want)
	}
	for a := 0; a < 2; a++ {
		if r.DomainSize(a) != 2 {
			t.Errorf("attribute %d: domain %d, want 2", a, r.DomainSize(a))
		}
		if d, _ := r.DictPrefix(a, 2); cap(d) != 2 {
			t.Errorf("attribute %d: dictionary cap %d aliases the caller's tail", a, cap(d))
		}
	}
	for _, tc := range []struct {
		name  string
		cols  [][]int
		dicts [][]string
	}{
		{"column count", [][]int{{0}}, [][]string{{"x"}, {"p"}}},
		{"dictionary count", [][]int{{0}, {0}}, [][]string{{"x"}}},
		{"ragged columns", [][]int{{0, 0}, {0}}, [][]string{{"x"}, {"p"}}},
		{"skipped code", [][]int{{0, 2}, {0, 0}}, [][]string{{"x", "y", "z"}, {"p"}}},
		{"negative code", [][]int{{-1}, {0}}, [][]string{{"x"}, {"p"}}},
		{"unused dictionary value", [][]int{{0, 0}, {0, 0}}, [][]string{{"x", "y"}, {"p"}}},
	} {
		if _, err := FromEncoded(names, tc.cols, tc.dicts); err == nil {
			t.Errorf("%s: want an error", tc.name)
		}
	}
}

func TestLoadCSV(t *testing.T) {
	csvData := "a,b,c\n1,x,9\n2,x,9\n1,y,8\n"
	r, err := Load(strings.NewReader(csvData), true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != 3 || r.Arity() != 3 {
		t.Fatalf("shape %dx%d", r.Rows(), r.Arity())
	}
	if r.Name(1) != "b" {
		t.Errorf("Name(1) = %q", r.Name(1))
	}
	r2, err := Load(strings.NewReader("1,x\n2,y\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rows() != 2 || r2.Name(0) != "col0" {
		t.Error("headerless load broken")
	}
	if _, err := Load(strings.NewReader(""), true); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Load(strings.NewReader("a,b\n1\n"), true); err == nil {
		t.Error("ragged csv should error")
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	r := PaperExample()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != r.Rows() || back.Arity() != r.Arity() {
		t.Fatal("round-trip shape mismatch")
	}
	for tt := 0; tt < r.Rows(); tt++ {
		for a := 0; a < r.Arity(); a++ {
			if back.Value(tt, a) != r.Value(tt, a) {
				t.Fatalf("round-trip value (%d,%d) = %q, want %q",
					tt, a, back.Value(tt, a), r.Value(tt, a))
			}
		}
	}
}

func TestProject(t *testing.T) {
	r := PaperExample()
	p := r.Project(attrset.New(1, 3, 4))
	if p.Arity() != 3 || p.Rows() != 7 {
		t.Fatalf("projection shape %dx%d", p.Rows(), p.Arity())
	}
	if p.Name(0) != "depnum" || p.Name(2) != "mgr" {
		t.Error("projection names wrong")
	}
	if p.Value(0, 1) != "Biochemistry" {
		t.Errorf("projection value = %q", p.Value(0, 1))
	}
}

func TestRestrictAndRow(t *testing.T) {
	r := PaperExample()
	s := r.Restrict([]int{2, 0, 2})
	if s.Rows() != 3 {
		t.Fatalf("Rows = %d", s.Rows())
	}
	if got := s.Row(0); got[3] != "Computer Sce" {
		t.Errorf("Row(0) = %v", got)
	}
	if got := s.Row(1); got[3] != "Biochemistry" {
		t.Errorf("Row(1) = %v", got)
	}
	if s.Value(2, 0) != "2" {
		t.Error("repeated index broken")
	}
	// Tuple 2 now comes first, so the columns are re-encoded: FromEncoded
	// accepts them only dense, in first-occurrence order, and with
	// dictionaries holding exactly the values used.
	cols, dicts := make([][]int, s.Arity()), make([][]string, s.Arity())
	for a := range cols {
		col, dom, _ := s.Column(a)
		dict, _ := s.DictPrefix(a, dom)
		cols[a], dicts[a] = col, dict
	}
	if _, err := FromEncoded(s.Names(), cols, dicts); err != nil {
		t.Errorf("Restrict broke the encoding: %v", err)
	}
}

func TestDeduplicate(t *testing.T) {
	r, err := FromRows([]string{"a", "b"}, [][]string{
		{"1", "x"}, {"1", "x"}, {"2", "y"}, {"1", "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := r.Deduplicate()
	if d.Rows() != 2 {
		t.Fatalf("dedup Rows = %d, want 2", d.Rows())
	}
	// Already-unique relations are returned as-is.
	if p := PaperExample(); p.Deduplicate() != p {
		t.Error("Deduplicate should return receiver when no duplicates")
	}
}

func TestStringRendering(t *testing.T) {
	r := PaperExample()
	s := r.String()
	if !strings.Contains(s, "empnum") || !strings.Contains(s, "Geophysics") {
		t.Errorf("String output missing content:\n%s", s)
	}
	if got := len(strings.Split(strings.TrimRight(s, "\n"), "\n")); got != 8 {
		t.Errorf("String rows = %d, want 8", got)
	}
}

// TestPropertySatisfiesMonotone: if X → A holds, any superset of X also
// determines A (augmentation), checked against random relations.
func TestPropertySatisfiesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(4)
		rows := 2 + rng.Intn(20)
		cols := make([][]int, n)
		for a := range cols {
			cols[a] = make([]int, rows)
			dom := 1 + rng.Intn(4)
			for t := range cols[a] {
				cols[a][t] = rng.Intn(dom)
			}
		}
		r, err := FromCodes(make([]string, n), cols)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < n; a++ {
			for xbits := 0; xbits < 1<<n; xbits++ {
				var x attrset.Set
				for b := 0; b < n; b++ {
					if xbits&(1<<b) != 0 {
						x.Add(b)
					}
				}
				if !r.Satisfies(x, a) {
					continue
				}
				// Augment with one more attribute; must still hold.
				for b := 0; b < n; b++ {
					if !r.Satisfies(x.With(b), a) {
						t.Fatalf("augmentation violated: %v→%d holds but %v→%d fails",
							x, a, x.With(b), a)
					}
				}
			}
		}
	}
}

// TestPropertyAgreeSetSymmetry: ag(ti,tj) = ag(tj,ti) and ag(t,t) = R.
func TestPropertyAgreeSetSymmetry(t *testing.T) {
	r := PaperExample()
	for i := 0; i < r.Rows(); i++ {
		if r.AgreeSet(i, i) != r.Schema() {
			t.Fatalf("ag(t,t) != R for t=%d", i)
		}
		for j := 0; j < r.Rows(); j++ {
			if r.AgreeSet(i, j) != r.AgreeSet(j, i) {
				t.Fatalf("agree set asymmetric for (%d,%d)", i, j)
			}
		}
	}
}
