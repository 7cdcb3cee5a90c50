package durable

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
)

// The golden data directory under testdata/golden was written by the
// release before the compactor encoded the serving layer's store (when
// the durable package kept its own column mirror), for the history
// below: registerGolden, the appends of goldenBefore, CompactAll, then
// the appends of goldenAfter, which stay in the WAL tail. Its
// snapshot.snap pins the DMSNAP1 bytes, and the directory as a whole
// pins recovery from a data dir written by that release.

var goldenNames = []string{"emp", "dept", "city", "grade"}

var registerGolden = [][]string{
	{"1", "Sales", "Paris", "A"},
	{"2", "Sales", "Paris", "B"},
	{"3", "R&D", "Lyon", "A"},
	{"4", "R&D", "Lyon", "C"},
	{"5", "Ops", "", "B"},
	{"6", "Ops", "", "A"},
}

var goldenBefore = [][][]string{
	{{"7", "Sales", "Paris", "C"}, {"8", "Légal", "Nice, FR", "A"}},
	{{"9", "R&D", "Lyon", "B"}},
}

var goldenAfter = [][][]string{
	{{"10", "Ops", "", "C"}},
	{{"11", "Légal", "Nice, FR", "B"}, {"12", "Sales", "Paris", "A"}},
}

const goldenDir = "testdata/golden/datasets/ds-golden"

// TestGoldenSnapshotBytes replays the golden history up to the
// compaction and requires the compactor to write the checked-in
// snapshot byte for byte.
func TestGoldenSnapshotBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenDir, "snapshot.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{DisableFsync: true, SnapshotEvery: -1})
	st, err := relation.StoreFromRows(goldenNames, registerGolden)
	if err != nil {
		t.Fatal(err)
	}
	m := &mirror{st: st, Fingerprint: FingerprintOf(st.View())}
	d, err := s.Create("ds-golden", "golden", st.View(), m.Sum())
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range goldenBefore {
		mustAppend(t, d, m, batch)
	}
	if err := s.CompactAll(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "datasets", "ds-golden", "snapshot.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compactor wrote %d snapshot bytes differing from the golden %d", len(got), len(want))
	}
}

// TestGoldenDataDirRecovers recovers the golden data directory — its
// snapshot plus a two-record WAL tail — and requires the full history's
// fingerprint, rows and cover.
func TestGoldenDataDirRecovers(t *testing.T) {
	dir := t.TempDir()
	dsDir := filepath.Join(dir, "datasets", "ds-golden")
	if err := os.MkdirAll(dsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"snapshot.snap", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dsDir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, rec := openStore(t, dir, Options{DisableFsync: true, SnapshotEvery: -1})
	defer s.Close()
	if len(rec.Datasets) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovery %+v", rec)
	}
	rd := rec.Datasets[0]
	if rd.Name != "golden" || rd.Replayed != len(goldenAfter) {
		t.Fatalf("recovered name %q after %d records, want \"golden\" after %d", rd.Name, rd.Replayed, len(goldenAfter))
	}

	history := slices.Clone(registerGolden)
	for _, batch := range append(slices.Clone(goldenBefore), goldenAfter...) {
		history = append(history, batch...)
	}
	want, err := relation.FromRows(goldenNames, history)
	if err != nil {
		t.Fatal(err)
	}
	if fp := FingerprintOf(want).Sum(); rd.Fingerprint != fp {
		t.Fatalf("recovered fingerprint %s, want %s", rd.Fingerprint, fp)
	}
	got := rd.Store.View()
	if got.Rows() != len(history) {
		t.Fatalf("recovered %d rows, want %d", got.Rows(), len(history))
	}
	for i, row := range history {
		if !slices.Equal(got.Row(i), row) {
			t.Fatalf("row %d = %q, want %q", i, got.Row(i), row)
		}
	}
	cover := func(r *relation.Relation) string {
		res, err := core.Run(context.Background(), core.Input{Source: r}, core.Options{Armstrong: core.ArmstrongNone})
		if err != nil {
			t.Fatal(err)
		}
		return res.FDs.String()
	}
	if g, w := cover(got), cover(want); g != w {
		t.Fatalf("recovered cover\n%s\nwant\n%s", g, w)
	}
}
