package relation

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// viewRecord is everything a view answers, copied out of it.
type viewRecord struct {
	rows  int
	cols  [][]int
	doms  []int
	dicts [][]string
	tuple [][]string
}

func recordView(r *Relation) viewRecord {
	rec := viewRecord{rows: r.Rows()}
	for a := range r.Arity() {
		col, dom, _ := r.Column(a)
		dict, _ := r.DictPrefix(a, r.DomainSize(a))
		rec.cols = append(rec.cols, slices.Clone(col))
		rec.doms = append(rec.doms, dom)
		rec.dicts = append(rec.dicts, slices.Clone(dict))
	}
	for t := range r.Rows() {
		rec.tuple = append(rec.tuple, r.Row(t))
	}
	return rec
}

func (rec viewRecord) equal(o viewRecord) bool {
	return rec.rows == o.rows && slices.Equal(rec.doms, o.doms) &&
		slices.EqualFunc(rec.cols, o.cols, slices.Equal) &&
		slices.EqualFunc(rec.dicts, o.dicts, slices.Equal) &&
		slices.EqualFunc(rec.tuple, o.tuple, slices.Equal)
}

// TestViewNeverChanges captures views at several row counts while a
// goroutine appends rows carrying new values, and reads each view while
// the appends continue: every view must keep answering what it answered
// when captured (in the manner of dolt's "Put didn't modify a previous
// set"), and equal FromRows of its prefix. Run it under -race: the
// appender and the readers share the store's memory.
func TestViewNeverChanges(t *testing.T) {
	names := []string{"a", "b", "c"}
	rows := make([][]string, 3000)
	for i := range rows {
		rows[i] = []string{"v" + strconv.Itoa(i), "g" + strconv.Itoa(i%7), strings.Repeat("x", i%5)}
	}
	st, err := StoreFromRows(names, rows[:10])
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // orders view captures with appends, like a dataset lock
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, row := range rows[10:] {
			mu.Lock()
			err := st.Append(row)
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var views []*Relation
	var records []viewRecord
	for appending := true; appending; {
		select {
		case <-done:
			appending = false
		default:
		}
		mu.Lock()
		v := st.View()
		mu.Unlock()
		views = append(views, v)
		records = append(records, recordView(v))
	}
	if len(views) < 2 {
		t.Fatalf("only %d views captured", len(views))
	}
	for i, v := range views {
		want, err := FromRows(names, rows[:records[i].rows])
		if err != nil {
			t.Fatal(err)
		}
		if now := recordView(v); !now.equal(records[i]) || !now.equal(recordView(want)) {
			t.Fatalf("view %d over %d rows changed after later appends", i, records[i].rows)
		}
	}
}

// TestStoreMatchesFromRows: appending rows one at a time yields the
// columns and dictionaries FromRows builds, and Lookup answers the code
// a value holds — or, for a new value, the provisional DomainSize.
func TestStoreMatchesFromRows(t *testing.T) {
	r := PaperExample()
	st, err := StoreFromRows(r.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range r.Rows() {
		if err := st.Append(r.Row(tt)); err != nil {
			t.Fatal(err)
		}
	}
	if !recordView(st.View()).equal(recordView(r)) {
		t.Fatal("appended store differs from FromRows")
	}
	if !recordView(mustStoreOf(t, r).View()).equal(recordView(r)) {
		t.Fatal("adopted store differs from its relation")
	}
	for a := range r.Arity() {
		if got := st.Lookup(a, r.Value(3, a)); got != r.Code(3, a) {
			t.Fatalf("Lookup(%d, %q) = %d, want %d", a, r.Value(3, a), got, r.Code(3, a))
		}
		if got := st.Lookup(a, "never seen"); got != r.DomainSize(a) {
			t.Fatalf("Lookup of a new value = %d, want the domain size %d", got, r.DomainSize(a))
		}
	}
	if err := st.Append([]string{"short"}); err == nil {
		t.Fatal("ragged row appended")
	}
}

// mustStoreOf adopts r into a store.
func mustStoreOf(t *testing.T, r *Relation) *Store {
	t.Helper()
	st, err := StoreOf(r)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
