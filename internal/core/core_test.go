package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/partition"
	"repro/internal/relation"
)

func set(spec string) attrset.Set {
	s, ok := attrset.Parse(spec)
	if !ok {
		panic("bad spec " + spec)
	}
	return s
}

// paperFDs is the 14-FD output of Example 11.
func paperFDs() fd.Cover {
	mk := func(lhs string, rhs int) fd.FD { return fd.FD{LHS: set(lhs), RHS: rhs} }
	c := fd.Cover{
		mk("BC", 0), mk("CD", 0),
		mk("AC", 1), mk("AE", 1), mk("D", 1),
		mk("AB", 2), mk("AD", 2), mk("AE", 2),
		mk("AC", 3), mk("AE", 3), mk("B", 3),
		mk("B", 4), mk("C", 4), mk("D", 4),
	}
	c.Sort()
	return c
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

func TestDiscoverPaperExampleAllAlgorithms(t *testing.T) {
	r := relation.PaperExample()
	want := paperFDs()
	for _, algo := range []AgreeAlgorithm{AgreeCouples, AgreeIdentifiers, AgreeNaive} {
		res, err := Discover(context.Background(), r, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !coversIdentical(res.FDs, want) {
			t.Errorf("%v: FDs =\n%s\nwant\n%s", algo, res.FDs, want)
		}
		if !res.MaxSets.Equal(attrset.Family{set("A"), set("BDE"), set("CE")}) {
			t.Errorf("%v: MaxSets = %v", algo, res.MaxSets.Strings())
		}
		wantAg := attrset.Family{attrset.Empty(), set("A"), set("BDE"), set("CE"), set("E")}
		if !res.AgreeSets.Equal(wantAg) {
			t.Errorf("%v: AgreeSets = %v", algo, res.AgreeSets.Strings())
		}
		if res.Armstrong == nil || res.Armstrong.Rows() != 4 {
			t.Errorf("%v: Armstrong missing or wrong size", algo)
		}
		if res.ArmstrongSynthetic {
			t.Errorf("%v: real-world Armstrong expected for paper example", algo)
		}
	}
}

// Paper Example 10: LHS families per attribute, including the trivial
// singleton.
func TestDiscoverLHSFamilies(t *testing.T) {
	r := relation.PaperExample()
	res, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	want := []attrset.Family{
		{set("A"), set("BC"), set("CD")},
		{set("AC"), set("AE"), set("B"), set("D")},
		{set("AB"), set("AD"), set("AE"), set("C")},
		{set("AC"), set("AE"), set("B"), set("D")},
		{set("B"), set("C"), set("D"), set("E")},
	}
	for a := range want {
		if !res.LHS[a].Equal(want[a]) {
			t.Errorf("lhs(dep(r),%c) = %v, want %v", 'A'+a, res.LHS[a].Strings(), want[a].Strings())
		}
	}
}

// codesOnly is a column source that is neither a *relation.Relation nor
// an armstrong.Source: it hides the rows the naive scan needs and the
// dictionaries step 5 reads.
type codesOnly struct{ partition.ColumnSource }

func TestRunFromDatabase(t *testing.T) {
	src := codesOnly{relation.PaperExample()}
	res, err := Run(context.Background(), Input{Source: src}, Options{Algorithm: AgreeIdentifiers})
	if err != nil {
		t.Fatal(err)
	}
	if !coversIdentical(res.FDs, paperFDs()) {
		t.Errorf("FDs mismatch:\n%s", res.FDs)
	}
	if res.Armstrong != nil {
		t.Error("Run without a relation must not build Armstrong relations")
	}
	// Naive needs the relation, and some input must be present.
	for _, in := range []Input{{Source: src}, {}} {
		if _, err := Run(context.Background(), in, Options{Algorithm: AgreeNaive}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("AgreeNaive over %+v: err = %v, want ErrInvalidOptions", in, err)
		}
	}
	if _, err := Run(context.Background(), Input{Source: src}, Options{Algorithm: AgreeAlgorithm(99)}); err == nil {
		t.Error("unknown algorithm should error")
	}
}

// TestRunInputsAgree pins Run's one rule for every input shape: the
// cover, max sets and agree sets are byte-identical to Discover, the
// Armstrong relation is built exactly when the source is the relation
// (skipped silently otherwise), and a supplied ag(r) is never recomputed.
func TestRunInputsAgree(t *testing.T) {
	ctx := context.Background()
	rels := map[string]*relation.Relation{"paper": relation.PaperExample()}
	for _, spec := range []datagen.Spec{
		{Attrs: 6, Rows: 200, Correlation: 0.5, Seed: 1},
		{Attrs: 9, Rows: 120, Correlation: 0.3, Seed: 2},
	} {
		r, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		rels[fmt.Sprintf("datagen-%dx%d", spec.Attrs, spec.Rows)] = r
	}
	for name, r := range rels {
		want, err := Discover(ctx, r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		full := &agree.Result{Sets: want.AgreeSets, Couples: want.Couples}
		for _, tc := range []struct {
			in        string
			input     Input
			armstrong bool
		}{
			{"relation", Input{Source: r}, true},
			{"codes", Input{Source: codesOnly{r}}, false},
			{"agree", Input{Agree: full, Arity: r.Arity()}, false},
		} {
			got, err := Run(ctx, tc.input, Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tc.in, err)
			}
			if fmt.Sprint(got.FDs) != fmt.Sprint(want.FDs) ||
				fmt.Sprint(got.MaxSets) != fmt.Sprint(want.MaxSets) ||
				fmt.Sprint(got.AgreeSets) != fmt.Sprint(want.AgreeSets) {
				t.Errorf("%s/%s: result differs from Discover", name, tc.in)
			}
			if got.Couples != want.Couples {
				t.Errorf("%s/%s: Couples = %d, want %d", name, tc.in, got.Couples, want.Couples)
			}
			if (got.Armstrong != nil) != tc.armstrong {
				t.Errorf("%s/%s: Armstrong built = %v, want %v", name, tc.in, got.Armstrong != nil, tc.armstrong)
			}
			if tc.armstrong && fmt.Sprint(got.Armstrong) != fmt.Sprint(want.Armstrong) {
				t.Errorf("%s/%s: Armstrong relation differs from Discover", name, tc.in)
			}
			if tc.input.Agree != nil && got.Stats.AgreeSets != 0 {
				t.Errorf("%s/%s: supplied ag(r) was recomputed", name, tc.in)
			}
		}
	}
}

func TestArmstrongModes(t *testing.T) {
	r := relation.PaperExample()
	// None.
	res, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	if res.Armstrong != nil || res.Stats.Armstrong != 0 {
		t.Error("ArmstrongNone must skip step 5")
	}
	// Synthetic.
	res, err = Discover(context.Background(), r, Options{Armstrong: ArmstrongSynthetic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ArmstrongSynthetic || res.Armstrong == nil {
		t.Error("ArmstrongSynthetic must build the integer relation")
	}
	if res.Armstrong.Value(0, 0) != "0" {
		t.Error("synthetic relation should be integer-coded")
	}
	// RealWorld strict on a relation violating Proposition 1.
	poor, err := relation.FromRows([]string{"a", "b", "c"},
		[][]string{{"1", "x", "p"}, {"2", "y", "q"}, {"1", "x", "r"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Discover(context.Background(), poor, Options{Armstrong: ArmstrongRealWorld})
	if err == nil {
		// a has 2 values; maximal sets avoiding a may demand more.
		// Verify via the fallback mode instead of asserting here.
		t.Log("strict real-world succeeded; relation was rich enough")
	}
	// Fallback never errors on Proposition 1.
	res, err = Discover(context.Background(), poor, Options{})
	if err != nil {
		t.Fatalf("fallback mode errored: %v", err)
	}
	if res.Armstrong == nil {
		t.Error("fallback mode must produce a relation")
	}
	if _, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongMode(99)}); err == nil {
		t.Error("unknown armstrong mode should error")
	}
}

func TestConstantColumnEmitsEmptyLHS(t *testing.T) {
	r, err := relation.FromRows([]string{"a", "b"},
		[][]string{{"1", "k"}, {"2", "k"}, {"3", "k"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	// ∅ → b (constant) and a → b (implied by minimality: actually ∅ → b
	// makes a → b non-minimal, so only ∅ → b is emitted).
	want := fd.Cover{{LHS: attrset.Empty(), RHS: 1}}
	if !coversIdentical(res.FDs, want) {
		t.Errorf("FDs = %v, want just ∅ → B", res.FDs)
	}
}

func TestKeyColumnFDs(t *testing.T) {
	// a is a key: a → b and a → c minimal; nothing else.
	r, err := relation.FromRows([]string{"a", "b", "c"},
		[][]string{{"1", "x", "x"}, {"2", "x", "y"}, {"3", "z", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	want := fd.MineBrute(r)
	if !coversIdentical(res.FDs, want) {
		t.Errorf("FDs =\n%s\nwant\n%s", res.FDs, want)
	}
}

func TestDegenerateRelations(t *testing.T) {
	// Empty and single-tuple relations: every FD holds; minimal cover is
	// ∅ → A for every attribute.
	for _, rows := range [][][]string{{}, {{"1", "x"}}} {
		r, err := relation.FromRows([]string{"a", "b"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Discover(context.Background(), r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := fd.Cover{{LHS: attrset.Empty(), RHS: 0}, {LHS: attrset.Empty(), RHS: 1}}
		if !coversIdentical(res.FDs, want) {
			t.Errorf("rows=%d: FDs = %v, want ∅→A, ∅→B", len(rows), res.FDs)
		}
		if res.Armstrong == nil || res.Armstrong.Rows() != 1 {
			t.Errorf("rows=%d: Armstrong should have exactly 1 tuple", len(rows))
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Discover(ctx, relation.PaperExample(), Options{})
	if err == nil {
		t.Error("cancelled context should abort discovery")
	}
}

func TestAlgorithmString(t *testing.T) {
	if AgreeCouples.String() != "Dep-Miner" ||
		AgreeIdentifiers.String() != "Dep-Miner 2" ||
		AgreeNaive.String() != "naive" {
		t.Error("algorithm names wrong")
	}
	if AgreeAlgorithm(42).String() == "" {
		t.Error("unknown algorithm must still render")
	}
}

// TestFastFDsStep3 pins FastFDs as Dep-Miner with a different step 3:
// the same cover, agree sets and max sets, no Algorithm 5 LHS families, a
// counted search — and a governed cutoff inside the search keeps the FDs
// of the attributes it finished.
func TestFastFDsStep3(t *testing.T) {
	ctx := context.Background()
	r := relation.PaperExample()
	dm, err := Discover(ctx, r, Options{Algorithm: AgreeIdentifiers, Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := Discover(ctx, r, Options{Algorithm: FastFDs, Armstrong: ArmstrongNone})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ff.FDs, ff.AgreeSets, ff.MaxSets) != fmt.Sprint(dm.FDs, dm.AgreeSets, dm.MaxSets) {
		t.Errorf("FastFDs result differs from Dep-Miner 2's:\n%s", ff.FDs)
	}
	if ff.LHS != nil || ff.DFSNodes == 0 || dm.DFSNodes != 0 || FastFDs.String() != "FastFDs" {
		t.Errorf("LHS=%v DFSNodes=%d (Dep-Miner %d) name=%q", ff.LHS, ff.DFSNodes, dm.DFSNodes, FastFDs)
	}

	faultinject.Set(faultinject.FastFDsAttr, faultinject.After(2, faultinject.FailWith(guard.ErrBudget)))
	defer faultinject.Reset()
	part, err := Discover(ctx, r, Options{Algorithm: FastFDs, Armstrong: ArmstrongNone})
	if !errors.Is(err, guard.ErrBudget) || part == nil || !part.Partial {
		t.Fatalf("cutoff at the third attribute: res=%v err=%v, want a partial result", part, err)
	}
	var want fd.Cover
	for _, f := range dm.FDs {
		if f.RHS < 2 {
			want = append(want, f)
		}
	}
	if fmt.Sprint(part.FDs) != fmt.Sprint(want) {
		t.Errorf("partial FDs = %s, want the first two attributes' %s", part.FDs, want)
	}
}

// TestPropertyDiscoverMatchesBruteForce cross-validates the full pipeline
// against the brute-force miner on random relations: identical canonical
// covers (same minimal FDs, not merely equivalent).
func TestPropertyDiscoverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 80; iter++ {
		n := 1 + rng.Intn(5)
		rows := rng.Intn(18)
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
		for _, algo := range []AgreeAlgorithm{AgreeCouples, AgreeIdentifiers} {
			res, err := Discover(context.Background(), r, Options{
				Algorithm: algo,
				Armstrong: ArmstrongNone,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !coversIdentical(res.FDs, want) {
				t.Fatalf("iter %d algo %v:\n got %s\nwant %s\nrelation:\n%v",
					iter, algo, res.FDs, want, r)
			}
		}
	}
}

// TestResultStats checks that every pipeline phase reports its wall
// time in Result.Stats.
func TestResultStats(t *testing.T) {
	r := relation.PaperExample()
	res, err := Discover(context.Background(), r, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	for name, d := range map[string]time.Duration{
		"Partition": s.Partition,
		"AgreeSets": s.AgreeSets,
		"MaxSets":   s.MaxSets,
		"LHS":       s.LHS,
		"Armstrong": s.Armstrong,
	} {
		if d <= 0 {
			t.Errorf("Stats.%s = %v, want > 0", name, d)
		}
	}
}
