package keys

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/attrset"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/partition"
	"repro/internal/relation"
)

func TestOptionsValidate(t *testing.T) {
	for _, opts := range []Options{{Workers: -1}, {MaxPartitionBytes: -1}} {
		if err := opts.Validate(); !errors.Is(err, guard.ErrInvalidOptions) {
			t.Errorf("Validate(%+v) = %v, want ErrInvalidOptions", opts, err)
		}
		if _, err := Discover(context.Background(), relation.PaperExample(), opts); !errors.Is(err, guard.ErrInvalidOptions) {
			t.Errorf("Discover(%+v) err = %v, want ErrInvalidOptions", opts, err)
		}
	}
	if err := (Options{Workers: 4, MaxPartitionBytes: 1 << 20}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func set(spec string) attrset.Set {
	s, ok := attrset.Parse(spec)
	if !ok {
		panic("bad spec " + spec)
	}
	return s
}

func TestPaperExampleKeys(t *testing.T) {
	r := relation.PaperExample()
	res, err := Discover(context.Background(), r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The theory keys of the instance cover: X is a key iff X⁺ = R.
	want := fd.MineBrute(r).Keys(r.Arity())
	if !res.Keys.Equal(want) {
		t.Errorf("Keys = %v, want %v", res.Keys.Strings(), want.Strings())
	}
	for _, k := range []string{"AB", "AC", "AD", "AE", "BC", "CD"} {
		if !res.Keys.Contains(set(k)) {
			t.Errorf("expected key %s missing", k)
		}
	}
	if res.LatticeNodes == 0 || res.Elapsed <= 0 {
		t.Error("stats not populated")
	}
}

func TestSingleColumnKey(t *testing.T) {
	r, err := relation.FromRows([]string{"id", "v"}, [][]string{
		{"1", "x"}, {"2", "x"}, {"3", "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(context.Background(), r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Keys.Equal(attrset.Family{set("A")}) {
		t.Errorf("Keys = %v, want {A}", res.Keys.Strings())
	}
}

func TestDuplicateTuplesHaveNoKey(t *testing.T) {
	r, err := relation.FromRows([]string{"a", "b"}, [][]string{
		{"1", "x"}, {"1", "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(context.Background(), r, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 0 {
		t.Errorf("Keys = %v, want none", res.Keys.Strings())
	}
}

func TestDegenerate(t *testing.T) {
	// ≤ 1 tuple: the empty set is the key.
	for _, rows := range [][][]string{{}, {{"1", "x"}}} {
		r, err := relation.FromRows([]string{"a", "b"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Discover(context.Background(), r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Keys.Equal(attrset.Family{attrset.Empty()}) {
			t.Errorf("rows=%d: Keys = %v, want {∅}", len(rows), res.Keys.Strings())
		}
	}
	// Zero attributes, two tuples (necessarily duplicates).
	r0, err := relation.FromRows(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(context.Background(), r0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Keys.Equal(attrset.Family{attrset.Empty()}) {
		t.Errorf("empty schema Keys = %v", res.Keys.Strings())
	}
}

// bruteKeys enumerates minimal unique sets directly.
func bruteKeys(r *relation.Relation) attrset.Family {
	n := r.Arity()
	var uniques attrset.Family
	for bits := uint64(0); bits < 1<<uint(n); bits++ {
		var x attrset.Set
		for b := 0; b < n; b++ {
			if bits&(1<<uint(b)) != 0 {
				x.Add(b)
			}
		}
		if partition.Of(r, x).IsUnique() {
			uniques = append(uniques, x)
		}
	}
	return uniques.Minimal()
}

func TestPropertyMatchesBruteForceAndTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 80; iter++ {
		n := 1 + rng.Intn(5)
		rows := rng.Intn(16)
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
		res, err := Discover(context.Background(), r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKeys(r)
		if !res.Keys.Equal(want) {
			t.Fatalf("iter %d: Keys = %v, want %v\nrelation:\n%v",
				iter, res.Keys.Strings(), want.Strings(), r)
		}
		// Theory cross-check on duplicate-free relations: instance keys
		// equal the keys of the discovered FD cover.
		d := r.Deduplicate()
		resD, err := Discover(context.Background(), d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		theory := fd.MineBrute(d).Keys(d.Arity())
		if !resD.Keys.Equal(theory) {
			t.Fatalf("iter %d: instance keys %v != theory keys %v",
				iter, resD.Keys.Strings(), theory.Strings())
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Discover(ctx, relation.PaperExample(), Options{}); err == nil {
		t.Error("cancelled context should abort")
	}
}
