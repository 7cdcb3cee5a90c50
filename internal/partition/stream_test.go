package partition

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/durable"
	"repro/internal/leakcheck"
	"repro/internal/relation"
)

// streamed builds the database from the single-use CSV source.
func streamed(t *testing.T, csv string, header bool) (*relation.CSVSource, *Database) {
	t.Helper()
	src, err := relation.NewCSVSource(strings.NewReader(csv), header)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabaseFromSource(context.Background(), src, 1)
	if err != nil {
		t.Fatal(err)
	}
	return src, db
}

func TestStreamMatchesMaterialized(t *testing.T) {
	r := relation.PaperExample()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	src, db := streamed(t, buf.String(), true)
	want := NewDatabase(r)
	if db.NumRows != want.NumRows || db.Arity() != want.Arity() {
		t.Fatalf("shape mismatch")
	}
	for a := range want.Attr {
		if !classesEqual(classes(db.Attr[a]), classes(want.Attr[a])) {
			t.Errorf("π̂_%c = %v, want %v", 'A'+a, classes(db.Attr[a]), classes(want.Attr[a]))
		}
	}
	if src.Names()[3] != "depname" {
		t.Errorf("Names = %v", src.Names())
	}
}

func TestStreamHeaderless(t *testing.T) {
	src, db := streamed(t, "1,x\n2,x\n1,y\n", false)
	if db.NumRows != 3 || src.Names()[0] != "col0" {
		t.Errorf("headerless: rows=%d names=%v", db.NumRows, src.Names())
	}
	if !classesEqual(classes(db.Attr[0]), [][]int{{0, 2}}) {
		t.Errorf("π̂_0 = %v", classes(db.Attr[0]))
	}
}

func TestStreamErrors(t *testing.T) {
	if _, err := relation.NewCSVSource(strings.NewReader(""), true); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := relation.NewCSVSource(strings.NewReader("a,b\n1\n"), true); err == nil {
		t.Error("ragged row accepted")
	}
	wide := strings.Repeat("x,", 300)
	if _, err := relation.NewCSVSource(strings.NewReader(wide+"x\n"), false); err == nil {
		t.Error("overwide schema accepted")
	}
	// The source is single-use: a second partition build fails.
	src, _ := streamed(t, "a,b\n1,2\n1,3\n", true)
	if _, err := NewDatabaseFromSource(context.Background(), src, 1); err == nil {
		t.Error("used-up source built a second database")
	}
}

// TestStreamEndToEndDiscovery: the streamed database yields the same
// maximal classes — the input of step 1 — as the materialised path.
func TestStreamEndToEndDiscovery(t *testing.T) {
	r := relation.PaperExample()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	_, db := streamed(t, buf.String(), true)
	mc := db.MaximalClasses()
	want := NewDatabase(r).MaximalClasses()
	if len(mc) != len(want) {
		t.Fatalf("MC size %d, want %d", len(mc), len(want))
	}
}

// writeSnapshot stores r in a fresh durable store and compacts it into a
// DMSNAP1 snapshot, returning the snapshot's path. Create alone never
// compacts, so the rows go in as one appended tail.
func writeSnapshot(t *testing.T, r *relation.Relation) string {
	t.Helper()
	rows := make([][]string, r.Rows())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	empty, err := relation.FromRows(r.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, _, err := durable.Open(durable.Options{Dir: dir, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ds, err := store.Create("snap", "snap", empty, durable.FingerprintOf(empty).Sum())
	if err != nil {
		t.Fatal(err)
	}
	tok, err := ds.Append(rows, r, durable.FingerprintOf(r).Sum())
	if err == nil {
		err = ds.Sync(tok)
	}
	if err == nil {
		err = store.CompactAll()
	}
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "datasets", "snap", "snapshot.snap")
}

// TestDatabaseSameForEveryPlan: the partition database is byte-identical,
// row store and offsets, for every worker count and every source kind.
func TestDatabaseSameForEveryPlan(t *testing.T) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 9, Rows: 3000, Correlation: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	snap := writeSnapshot(t, r)
	sources := []struct {
		name string
		open func() ColumnSource
	}{
		{"relation", func() ColumnSource { return r }},
		{"csv", func() ColumnSource {
			src, err := relation.NewCSVSource(bytes.NewReader(csv.Bytes()), true)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
		{"snapshot", func() ColumnSource {
			sr, err := durable.OpenSnapshotStream(snap)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sr.Close() })
			return sr
		}},
	}
	for _, src := range sources {
		for _, workers := range []int{1, 2, 4} {
			db, err := NewDatabaseFromSource(context.Background(), src.open(), workers)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", src.name, workers, err)
			}
			if db.NumRows != r.Rows() || db.Arity() != r.Arity() {
				t.Fatalf("%s/workers=%d: %d×%d database", src.name, workers, db.NumRows, db.Arity())
			}
			for a, p := range db.Attr {
				want := Single(r, a)
				if !slices.Equal(p.rows, want.rows) || !slices.Equal(p.offs, want.offs) {
					t.Errorf("%s/workers=%d: π̂_%d differs from the serial build", src.name, workers, a)
				}
			}
		}
	}
}

// hookSource wraps a relation and runs a hook before each column read.
type hookSource struct {
	*relation.Relation
	reads atomic.Int64
	hook  func(a int) error
}

func (s *hookSource) Column(a int) ([]int, int, error) {
	s.reads.Add(1)
	if err := s.hook(a); err != nil {
		return nil, 0, err
	}
	return s.Relation.Column(a)
}

// TestDatabaseReadsColumnsInOrder: whatever the worker count, Column is
// called once per attribute, in attribute order, and never twice at once,
// so a sequential or single-use source needs no locking of its own.
func TestDatabaseReadsColumnsInOrder(t *testing.T) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 16, Rows: 200, Correlation: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		var inside atomic.Bool
		want := 0
		src := &hookSource{Relation: r, hook: func(a int) error {
			if inside.Swap(true) {
				return errors.New("two Column calls overlap")
			}
			defer inside.Store(false)
			runtime.Gosched() // widen the window for an overlapping call
			if a != want {
				return fmt.Errorf("read column %d, want %d", a, want)
			}
			want++
			return nil
		}}
		if _, err := NewDatabaseFromSource(context.Background(), src, workers); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}

// TestDatabaseBuildFailures: a failing Column surfaces its error, and a
// cancelled context stops the build within one column per worker; no
// worker outlives either.
func TestDatabaseBuildFailures(t *testing.T) {
	leakcheck.Check(t)
	r, err := datagen.Generate(datagen.Spec{Attrs: 12, Rows: 500, Correlation: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("column read failed")
	for _, workers := range []int{1, 2, 4} {
		src := &hookSource{Relation: r, hook: func(a int) error {
			if a == 5 {
				return boom
			}
			return nil
		}}
		if _, err := NewDatabaseFromSource(context.Background(), src, workers); !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want the column error", workers, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		src = &hookSource{Relation: r, hook: func(a int) error {
			if a == 2 {
				cancel()
			}
			return nil
		}}
		if _, err := NewDatabaseFromSource(ctx, src, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The read that cancelled is the third; each other worker may
		// have begun one more.
		if n := src.reads.Load(); n > int64(2+workers) {
			t.Errorf("workers=%d: %d columns read after cancelling at the third", workers, n)
		}
		if _, err := NewDatabaseFromSource(ctx, src, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled build err = %v", workers, err)
		}
	}
}
