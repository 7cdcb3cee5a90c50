package depminer

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestPublicAPIFastFDs(t *testing.T) {
	r := PaperExample()
	ff, err := Discover(context.Background(), r, Options{Algorithm: FastFDs})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.FDs) != len(dm.FDs) {
		t.Fatalf("FastFDs %d FDs, Dep-Miner %d", len(ff.FDs), len(dm.FDs))
	}
	for i := range ff.FDs {
		if ff.FDs[i] != dm.FDs[i] {
			t.Fatalf("FD %d differs: %s vs %s", i, ff.FDs[i], dm.FDs[i])
		}
	}
}

func TestPublicAPIIncremental(t *testing.T) {
	r := PaperExample()
	m, err := NewIncrementalMiner(r.Names())
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < r.Rows(); tt++ {
		if err := m.Insert(r.Row(tt)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.Discover(context.Background(), Options{Armstrong: ArmstrongRealWorld})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FDs) != 14 {
		t.Fatalf("incremental cover has %d FDs, want 14", len(res.FDs))
	}
	if res.Armstrong.Rows() != 4 {
		t.Errorf("Armstrong rows = %d, want 4", res.Armstrong.Rows())
	}
	m2, err := IncrementalFromRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Discover(context.Background(), Options{Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.FDs) != len(res.FDs) {
		t.Error("FromRelation and per-insert paths disagree")
	}
}

func TestPublicAPIStreaming(t *testing.T) {
	r := PaperExample()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := StreamCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if src.Names()[0] != "empnum" || src.Rows() != 7 || src.Arity() != 5 {
		t.Error("streamed metadata wrong")
	}
	res, err := Discover(context.Background(), src, Options{Algorithm: DepMiner2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Armstrong != nil {
		t.Error("streamed path must not build Armstrong relations")
	}
}

func TestPublicAPIStreamingErrors(t *testing.T) {
	if _, err := StreamCSV(strings.NewReader(""), true); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestPublicAPIGeneratePlanted(t *testing.T) {
	rule, err := ParseFD("A, B -> C", []string{"A", "B", "C", "D"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := GeneratePlanted(PlantedSpec{
		Attrs: 4, Rows: 200, Seed: 5, FDs: Cover{rule}, FreeDomain: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := Verify(r, Cover{rule}); !ok {
		t.Fatalf("planted FD %s violated", bad)
	}
	res, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FDs.Implies(rule, r.Arity()) {
		t.Error("discovery missed the planted dependency")
	}
}

func TestPublicAPIKeys(t *testing.T) {
	r := PaperExample()
	res, err := DiscoverKeys(context.Background(), r, KeysOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 6 {
		t.Fatalf("found %d keys, want 6: %v", len(res.Keys), res.Keys.Strings())
	}
	// Every key determines every attribute per the discovered cover.
	dm, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Keys {
		for a := 0; a < r.Arity(); a++ {
			if !dm.FDs.Implies(FD{LHS: k, RHS: a}, r.Arity()) {
				t.Errorf("key %v does not imply attribute %d via the cover", k, a)
			}
		}
	}
}

func TestPublicAPIINDs(t *testing.T) {
	customers, err := NewRelation([]string{"id", "city"},
		[][]string{{"c1", "Lyon"}, {"c2", "Paris"}})
	if err != nil {
		t.Fatal(err)
	}
	orders, err := NewRelation([]string{"oid", "cust"},
		[][]string{{"o1", "c1"}, {"o2", "c2"}, {"o3", "c1"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DiscoverINDs(context.Background(),
		[]*Relation{customers, orders}, INDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.INDs {
		if d.Names([]string{"customers", "orders"}, []*Relation{customers, orders}) ==
			"orders(cust) ⊆ customers(id)" {
			found = true
		}
	}
	if !found {
		t.Errorf("foreign key not discovered: %v", res.INDs)
	}
}
