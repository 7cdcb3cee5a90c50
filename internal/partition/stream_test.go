package partition

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/relation"
)

// streamed builds the database from the single-use CSV source.
func streamed(t *testing.T, csv string, header bool) (*relation.CSVSource, *Database) {
	t.Helper()
	src, err := relation.NewCSVSource(strings.NewReader(csv), header)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabaseFromSource(src)
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
		if !classesEqual(db.Attr[a].Classes(), want.Attr[a].Classes()) {
			t.Errorf("π̂_%c = %v, want %v", 'A'+a, db.Attr[a].Classes(), want.Attr[a].Classes())
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
	if !classesEqual(db.Attr[0].Classes(), [][]int{{0, 2}}) {
		t.Errorf("π̂_0 = %v", db.Attr[0].Classes())
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
	if _, err := NewDatabaseFromSource(src); err == nil {
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
