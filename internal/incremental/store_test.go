package incremental

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/relation"
)

// sameRelation fails unless got and want hold the same schema, the same
// code in every cell and the same dictionary for every attribute.
func sameRelation(t *testing.T, got, want *relation.Relation) {
	t.Helper()
	if !slices.Equal(got.Names(), want.Names()) || got.Rows() != want.Rows() {
		t.Fatalf("shape %v×%d, want %v×%d", got.Names(), got.Rows(), want.Names(), want.Rows())
	}
	for a := range want.Arity() {
		gc, gd, _ := got.Column(a)
		wc, wd, _ := want.Column(a)
		if gd != wd {
			t.Fatalf("attribute %d: domain %d, want %d", a, gd, wd)
		}
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("attribute %d, tuple %d: code %d, want %d", a, i, gc[i], wc[i])
			}
		}
		gv, _ := got.DictPrefix(a, gd)
		wv, _ := want.DictPrefix(a, wd)
		if !slices.Equal(gv, wv) {
			t.Fatalf("attribute %d: dictionary %q, want %q", a, gv, wv)
		}
	}
}

// sameMiner fails unless two miners hold the same tuples, ag(r) and cover.
func sameMiner(t *testing.T, got, want *Miner) {
	t.Helper()
	gs, _ := got.Snapshot()
	ws, _ := want.Snapshot()
	sameRelation(t, gs, ws)
	if !got.AgreeSets().Equal(want.AgreeSets()) {
		t.Fatalf("ag(r) = %v, want %v", got.AgreeSets().Strings(), want.AgreeSets().Strings())
	}
	gc, err := got.Cover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wc, err := want.Cover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !coversIdentical(gc, wc) {
		t.Fatalf("cover %s, want %s", gc, wc)
	}
}

// fromRows builds the reference relation of the committed rows.
func fromRows(t *testing.T, names []string, rows [][]string) *relation.Relation {
	t.Helper()
	r, err := relation.FromRows(names, rows)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// freshValueStream is an insert stream whose every row shares a value
// with all earlier rows (attribute a) and brings a value never seen
// before (attribute c), so an abort can strand a dictionary code.
func freshValueStream(rows int) [][]string {
	out := make([][]string, rows)
	for i := range out {
		out[i] = []string{"shared", "h" + strconv.Itoa(i%3), "new" + strconv.Itoa(i)}
	}
	return out
}

// TestAbortedInsertLeavesNoTrace cancels the context in the middle of an
// insert's scan — after its new values took provisional codes — and
// checks that the store is exactly FromRows of the committed rows, and
// that the retried insert reaches the state of an insert that never
// aborted.
func TestAbortedInsertLeavesNoTrace(t *testing.T) {
	defer faultinject.Reset()
	names := []string{"a", "b", "c"}
	stream := freshValueStream(3 * insertCheckStride)
	base := len(stream) - 1
	m := referenceMiner(t, names, stream, base)

	// The hook cancels at the scan's first stride; the check at the next
	// stride then aborts the insert mid-scan.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Set(faultinject.IncrementalInsert, func() error {
		cancel()
		return nil
	})
	err := m.InsertCtx(ctx, stream[base])
	faultinject.Reset()
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("mid-scan cancellation: err = %v, want guard.ErrDeadline", err)
	}
	snap, _ := m.Snapshot()
	sameRelation(t, snap, fromRows(t, names, stream[:base]))

	if err := m.Insert(stream[base]); err != nil {
		t.Fatal(err)
	}
	sameMiner(t, m, referenceMiner(t, names, stream, len(stream)))
}

// TestInsertFaultLeavesNoTrace fires the incremental/insert fault at
// every crossing of a stream whose rows carry new values: after each
// abort the store equals FromRows of the committed rows, and retrying
// converges to the fault-free miner.
func TestInsertFaultLeavesNoTrace(t *testing.T) {
	defer faultinject.Reset()
	names := []string{"a", "b", "c"}
	stream := freshValueStream(12)
	clean := referenceMiner(t, names, stream, len(stream))
	errBoom := errors.New("injected insert fault")
	for k := 0; ; k++ {
		m, err := New(names)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set(faultinject.IncrementalInsert, faultinject.After(k, faultinject.FailWith(errBoom)))
		faulted := -1
		for i, row := range stream {
			if err := m.InsertCtx(context.Background(), row); err != nil {
				if !errors.Is(err, errBoom) {
					t.Fatalf("k=%d: unexpected error %v", k, err)
				}
				faulted = i
				break
			}
		}
		faultinject.Reset()
		if faulted < 0 {
			if k == 0 {
				t.Fatal("the fault never fired")
			}
			return // every crossing has been faulted once
		}
		snap, _ := m.Snapshot()
		sameRelation(t, snap, fromRows(t, names, stream[:faulted]))
		for _, row := range stream[faulted:] {
			if err := m.Insert(row); err != nil {
				t.Fatalf("k=%d: retry failed: %v", k, err)
			}
		}
		sameMiner(t, m, clean)
	}
}

// seedCases are relations with the shapes seeding must get right:
// duplicate rows (R ∈ ag(r)), constant columns, 0/1/2 rows, and all
// distinct rows (∅ ∈ ag(r), no couples at all).
func seedCases(rng *rand.Rand) []seedCase {
	random := func(rows, arity, dom int) [][]string {
		out := make([][]string, rows)
		for i := range out {
			out[i] = make([]string, arity)
			for a := range out[i] {
				out[i][a] = strconv.Itoa(rng.Intn(dom))
			}
		}
		return out
	}
	distinct := make([][]string, 30)
	for i := range distinct {
		distinct[i] = []string{"x" + strconv.Itoa(i), "y" + strconv.Itoa(i), "z" + strconv.Itoa(i)}
	}
	constant := random(40, 4, 5)
	for _, row := range constant {
		row[1] = "k"
	}
	dup := random(20, 3, 3)
	dup = append(dup, dup[3], dup[7], dup[3])
	return []seedCase{
		{"empty", nil},
		{"one row", random(1, 3, 4)},
		{"two rows", random(2, 3, 2)},
		{"duplicates", dup},
		{"constant", constant},
		{"distinct", distinct},
		{"random", random(120, 5, 6)},
	}
}

type seedCase struct {
	name string
	rows [][]string
}

// TestSeededEqualsInserts: a miner seeded by one sweep over a store
// holds the same tuples, ag(r) (∅ and R included) and cover as a miner
// fed one Insert per row, at every worker count, before and after
// further inserts.
func TestSeededEqualsInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, c := range seedCases(rng) {
		name, rows := c.name, c.rows
		arity := 3
		if len(rows) > 0 {
			arity = len(rows[0])
		}
		names := make([]string, arity)
		for a := range names {
			names[a] = "c" + strconv.Itoa(a)
		}
		more := make([][]string, 15)
		for i := range more {
			more[i] = make([]string, arity)
			for a := range more[i] {
				more[i][a] = strconv.Itoa(rng.Intn(8))
			}
		}
		all := append(slices.Clone(rows), more...)
		for _, workers := range []int{1, 2, 4} {
			st, err := relation.StoreFromRows(names, rows)
			if err != nil {
				t.Fatal(err)
			}
			seeded, err := FromStore(context.Background(), st, workers)
			if err != nil {
				t.Fatalf("%s, workers %d: %v", name, workers, err)
			}
			sameMiner(t, seeded, referenceMiner(t, names, all, len(rows)))
			for _, row := range more {
				if err := seeded.Insert(row); err != nil {
					t.Fatal(err)
				}
			}
			sameMiner(t, seeded, referenceMiner(t, names, all, len(all)))
		}
	}
}

// TestStoresOfOneRelationStayApart: two miners adopting one relation's
// columns append different rows past them without touching the relation
// or each other.
func TestStoresOfOneRelationStayApart(t *testing.T) {
	r := relation.PaperExample()
	names := r.Names()
	var base [][]string
	for tt := range r.Rows() {
		base = append(base, r.Row(tt))
	}
	grown := make([][][]string, 2)
	miners := make([]*Miner, 2)
	for k := range miners {
		m, err := FromStore(context.Background(), storeOf(t, r), 1)
		if err != nil {
			t.Fatal(err)
		}
		miners[k] = m
		grown[k] = slices.Clone(base)
	}
	for i := range 5 {
		for k, m := range miners {
			row := []string{"m" + strconv.Itoa(k), strconv.Itoa(i), "2", "Sales", strconv.Itoa(k * i)}
			if err := m.Insert(row); err != nil {
				t.Fatal(err)
			}
			grown[k] = append(grown[k], row)
		}
	}
	for k, m := range miners {
		snap, _ := m.Snapshot()
		sameRelation(t, snap, fromRows(t, names, grown[k]))
	}
	sameRelation(t, r, relation.PaperExample())
}
