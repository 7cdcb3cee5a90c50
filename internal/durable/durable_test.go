package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// testRows builds n deterministic rows over a 3-attribute schema with
// enough repeated values to exercise the dictionaries.
func testRows(start, n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		k := start + i
		rows[i] = []string{
			fmt.Sprintf("u%d", k%7),
			fmt.Sprintf("city%d", k%3),
			fmt.Sprintf("v%d", k),
		}
	}
	return rows
}

var testNames = []string{"user", "city", "val"}

// openStore opens a store over dir with fsync on and a tiny compaction
// threshold unless overridden.
func openStore(t *testing.T, dir string, opts Options) (*Store, *Recovery) {
	t.Helper()
	opts.Dir = dir
	s, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

// viewOf encodes rows over testNames.
func viewOf(rows [][]string) *relation.Relation {
	r, err := relation.FromRows(testNames, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// mirror is what the serving layer keeps beside a durable dataset: the
// column store whose views the handle logs, and the running fingerprint.
type mirror struct {
	st *relation.Store
	*Fingerprint
}

// add commits rows to the store and the fingerprint, returning the view
// with them. It reports a failure with t.Error, so appenders on other
// goroutines may call it.
func (m *mirror) add(t *testing.T, rows [][]string) *relation.Relation {
	t.Helper()
	for _, r := range rows {
		if err := m.st.Append(r); err != nil {
			t.Error(err)
		}
		m.AddRow(r)
	}
	return m.st.View()
}

// mustCreate registers a dataset computing its fingerprint the same way
// the server does.
func mustCreate(t *testing.T, s *Store, id string, rows [][]string) (*Dataset, *mirror) {
	t.Helper()
	st, err := relation.StoreFromRows(testNames, rows)
	if err != nil {
		t.Fatal(err)
	}
	m := &mirror{st: st, Fingerprint: FingerprintOf(st.View())}
	d, err := s.Create(id, "t/"+id, st.View(), m.Sum())
	if err != nil {
		t.Fatalf("Create %s: %v", id, err)
	}
	return d, m
}

// mustAppend appends rows, advancing the mirror, and syncs.
func mustAppend(t *testing.T, d *Dataset, m *mirror, rows [][]string) {
	t.Helper()
	tok, err := d.Append(rows, m.add(t, rows), m.Sum())
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := d.Sync(tok); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestCreateAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s, rec := openStore(t, dir, Options{})
	if len(rec.Datasets) != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	init := testRows(0, 5)
	d, f := mustCreate(t, s, "ds-alpha", init)
	mustAppend(t, d, f, testRows(5, 4))
	mustAppend(t, d, f, testRows(9, 3))
	wantFP := f.Sum()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := openStore(t, dir, Options{})
	defer s2.Close()
	if len(rec2.Quarantined) != 0 {
		t.Fatalf("quarantined on clean reopen: %+v", rec2.Quarantined)
	}
	if len(rec2.Datasets) != 1 {
		t.Fatalf("recovered %d datasets, want 1", len(rec2.Datasets))
	}
	rd := rec2.Datasets[0]
	if rd.ID != "ds-alpha" || rd.Name != "t/ds-alpha" {
		t.Fatalf("recovered identity %q/%q", rd.ID, rd.Name)
	}
	if rd.Fingerprint != wantFP {
		t.Fatalf("recovered fp %s, want %s", rd.Fingerprint, wantFP)
	}
	if rd.Store.Rows() != 12 {
		t.Fatalf("recovered %d rows, want 12", rd.Store.Rows())
	}
	if got := FingerprintOf(rd.Store.View()).Sum(); got != wantFP {
		t.Fatalf("replayed content fingerprint %s, want %s", got, wantFP)
	}
	if rd.Replayed != 3 { // register + 2 appends
		t.Fatalf("replayed %d records, want 3", rd.Replayed)
	}
	if rd.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
}

func TestRecoveredDatasetAcceptsAppends(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{})
	init := testRows(0, 3)
	d, f := mustCreate(t, s, "ds-app", init)
	mustAppend(t, d, f, testRows(3, 2))
	s.Close()

	s2, rec := openStore(t, dir, Options{})
	if len(rec.Datasets) != 1 {
		t.Fatalf("recovered %d datasets", len(rec.Datasets))
	}
	d2, ok := s2.Dataset("ds-app")
	if !ok {
		t.Fatal("recovered dataset not addressable")
	}
	st := rec.Datasets[0].Store
	f2 := &mirror{st: st, Fingerprint: FingerprintOf(st.View())}
	mustAppend(t, d2, f2, testRows(5, 4))
	want := f2.Sum()
	s2.Close()

	_, rec3 := openStore(t, dir, Options{})
	if got := rec3.Datasets[0].Fingerprint; got != want {
		t.Fatalf("after post-recovery append: fp %s, want %s", got, want)
	}
	if n := rec3.Datasets[0].Store.Rows(); n != 9 {
		t.Fatalf("after post-recovery append: %d rows, want 9", n)
	}
}

func TestTornTailTruncated(t *testing.T) {
	// Cut the WAL at every byte inside its final frame; each cut must
	// recover the clean two-record prefix, never quarantine.
	base := t.TempDir()
	s, _ := openStore(t, base, Options{})
	d, f := mustCreate(t, s, "ds-torn", testRows(0, 4))
	mustAppend(t, d, f, testRows(4, 3))
	prefixFP := f.Sum()
	mustAppend(t, d, f, testRows(7, 2))
	s.Close()

	walPath := filepath.Join(base, "datasets", "ds-torn", "wal.log")
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, validLen, torn, reason := scanWAL(full)
	if torn || reason != "" || len(recs) != 3 || validLen != len(full) {
		t.Fatalf("clean log scanned recs=%d torn=%v reason=%q", len(recs), torn, reason)
	}
	// Find where the final frame starts.
	_, prefixLen, _, _ := scanWAL(full[:len(full)-1])
	for cut := prefixLen + 1; cut < len(full); cut += 7 {
		dir := t.TempDir()
		dsDir := filepath.Join(dir, "datasets", "ds-torn")
		if err := os.MkdirAll(dsDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dsDir, "wal.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rec := openStore(t, dir, Options{})
		if len(rec.Quarantined) != 0 {
			t.Fatalf("cut=%d quarantined: %+v", cut, rec.Quarantined)
		}
		if len(rec.Datasets) != 1 {
			t.Fatalf("cut=%d recovered %d datasets", cut, len(rec.Datasets))
		}
		rd := rec.Datasets[0]
		if !rd.TornTail {
			t.Fatalf("cut=%d no torn tail reported", cut)
		}
		if rd.Store.Rows() != 7 || rd.Fingerprint != prefixFP {
			t.Fatalf("cut=%d recovered %d rows fp=%s, want 7 rows fp=%s",
				cut, rd.Store.Rows(), rd.Fingerprint, prefixFP)
		}
		// The repair must be durable: the file now holds only the prefix.
		repaired, err := os.ReadFile(filepath.Join(dsDir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		if len(repaired) != prefixLen {
			t.Fatalf("cut=%d wal repaired to %d bytes, want %d", cut, len(repaired), prefixLen)
		}
		s2.Close()
	}
}

func TestMidLogCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{})
	d, f := mustCreate(t, s, "ds-bad", testRows(0, 4))
	mustAppend(t, d, f, testRows(4, 3))
	mustAppend(t, d, f, testRows(7, 2))
	s.Close()

	walPath := filepath.Join(dir, "datasets", "ds-bad", "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle record: not the final frame, so
	// truncation cannot explain it.
	bounds := frameBounds(t, data)
	if len(bounds) != 3 {
		t.Fatalf("expected 3 frames, got %d", len(bounds))
	}
	mid := (bounds[1] + bounds[2]) / 2
	data[mid] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := openStore(t, dir, Options{})
	defer s2.Close()
	if len(rec.Datasets) != 0 {
		t.Fatalf("corrupt dataset served: %+v", rec.Datasets)
	}
	if len(rec.Quarantined) != 1 {
		t.Fatalf("quarantined %d, want 1", len(rec.Quarantined))
	}
	q := rec.Quarantined[0]
	if q.ID != "ds-bad" || !strings.Contains(q.Reason, "checksum mismatch") {
		t.Fatalf("quarantine %+v", q)
	}
	// The directory moved and REASON.json is structured.
	if _, err := os.Stat(filepath.Join(dir, "datasets", "ds-bad")); !os.IsNotExist(err) {
		t.Fatal("corrupt dataset dir still under datasets/")
	}
	body, err := os.ReadFile(filepath.Join(q.Path, "REASON.json"))
	if err != nil {
		t.Fatalf("REASON.json: %v", err)
	}
	var parsed struct {
		ID     string `json:"id"`
		Reason string `json:"reason"`
		At     string `json:"at"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("REASON.json unmarshal: %v", err)
	}
	if parsed.ID != "ds-bad" || parsed.Reason == "" || parsed.At == "" {
		t.Fatalf("REASON.json content %+v", parsed)
	}
	// The original WAL rode along into quarantine for post-mortems.
	if _, err := os.Stat(filepath.Join(q.Path, "wal.log")); err != nil {
		t.Fatalf("quarantined wal.log missing: %v", err)
	}
}

// frameBounds returns the start offset of each frame in a clean WAL.
func frameBounds(t *testing.T, data []byte) []int {
	t.Helper()
	var bounds []int
	off := 0
	for off < len(data) {
		bounds = append(bounds, off)
		ln := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += frameHeaderLen + ln
		if ln < 0 || off > len(data) {
			t.Fatalf("frameBounds on dirty log at offset %d", bounds[len(bounds)-1])
		}
	}
	return bounds
}

func TestFingerprintMismatchQuarantined(t *testing.T) {
	// Hand-craft a structurally valid WAL whose recorded fingerprint does
	// not match its content: recovery must refuse it.
	dir := t.TempDir()
	dsDir := filepath.Join(dir, "datasets", "ds-lie")
	if err := os.MkdirAll(dsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	rows := testRows(0, 3)
	wal := appendFrame(nil, encodeRegister("t/lie", viewOf(rows), strings.Repeat("f", 64)))
	if err := os.WriteFile(filepath.Join(dsDir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := openStore(t, dir, Options{})
	defer s.Close()
	if len(rec.Quarantined) != 1 || !strings.Contains(rec.Quarantined[0].Reason, "fingerprint mismatch") {
		t.Fatalf("recovery %+v", rec)
	}
}

func TestSequenceGapQuarantined(t *testing.T) {
	dir := t.TempDir()
	dsDir := filepath.Join(dir, "datasets", "ds-gap")
	if err := os.MkdirAll(dsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	reg := viewOf(testRows(0, 2))
	f := FingerprintOf(reg)
	wal := appendFrame(nil, encodeRegister("t/gap", reg, f.Sum()))
	// An append record claiming to raise the count to 10 with one row.
	wal = appendFrame(wal, encodeAppend(10, testRows(2, 1), f.Sum()))
	if err := os.WriteFile(filepath.Join(dsDir, "wal.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := openStore(t, dir, Options{})
	defer s.Close()
	if len(rec.Quarantined) != 1 || !strings.Contains(rec.Quarantined[0].Reason, "sequence gap") {
		t.Fatalf("recovery %+v", rec)
	}
}

func TestEmptyDatasetDirDropped(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "datasets", "ds-ghost"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, rec := openStore(t, dir, Options{})
	defer s.Close()
	if len(rec.Datasets) != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("ghost dir surfaced: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(dir, "datasets", "ds-ghost")); !os.IsNotExist(err) {
		t.Fatal("ghost dir not removed")
	}
	if st := s.Stats(); st.DroppedEmpty != 1 {
		t.Fatalf("DroppedEmpty = %d", st.DroppedEmpty)
	}
}

func TestCompactionFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{SnapshotEvery: -1}) // manual compaction only
	d, f := mustCreate(t, s, "ds-comp", testRows(0, 3))
	rows := 3
	for i := 0; i < 5; i++ {
		batch := testRows(rows, 4)
		mustAppend(t, d, f, batch)
		rows += 4
	}
	if err := d.compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// More appends after the snapshot land in a fresh WAL tail.
	mustAppend(t, d, f, testRows(rows, 2))
	rows += 2
	want := f.Sum()
	st := s.Stats()
	if st.Snapshots != 1 {
		t.Fatalf("Snapshots = %d", st.Snapshots)
	}
	s.Close()

	s2, rec := openStore(t, dir, Options{})
	defer s2.Close()
	if len(rec.Datasets) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovery %+v", rec)
	}
	rd := rec.Datasets[0]
	if rd.Store.Rows() != rows || rd.Fingerprint != want {
		t.Fatalf("recovered %d rows fp=%s, want %d fp=%s", rd.Store.Rows(), rd.Fingerprint, rows, want)
	}
	if rd.Replayed != 1 { // only the post-snapshot append
		t.Fatalf("replayed %d records over snapshot, want 1", rd.Replayed)
	}
}

func TestCompactAllThenReopenReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{SnapshotEvery: -1})
	d, f := mustCreate(t, s, "ds-drain", testRows(0, 6))
	mustAppend(t, d, f, testRows(6, 6))
	want := f.Sum()
	if err := s.CompactAll(); err != nil {
		t.Fatalf("CompactAll: %v", err)
	}
	s.Close()

	_, rec := openStore(t, dir, Options{})
	rd := rec.Datasets[0]
	if rd.Replayed != 0 {
		t.Fatalf("replayed %d records after a clean drain, want 0", rd.Replayed)
	}
	if rd.Fingerprint != want || rd.Store.Rows() != 12 {
		t.Fatalf("drained recovery %d rows fp=%s", rd.Store.Rows(), rd.Fingerprint)
	}
}

func TestReplaySkipsRecordsCoveredBySnapshot(t *testing.T) {
	// Simulate a crash between the snapshot rename and the WAL truncate:
	// the WAL still holds records the snapshot covers. Replay must skip
	// them by watermark, not double-apply.
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{SnapshotEvery: -1})
	d, f := mustCreate(t, s, "ds-skip", testRows(0, 3))
	mustAppend(t, d, f, testRows(3, 3))
	walPath := filepath.Join(dir, "datasets", "ds-skip", "wal.log")
	preCompact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.compact(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, d, f, testRows(6, 2))
	want := f.Sum()
	postCompact, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Reconstruct the pre-truncate state: covered records followed by the
	// live tail.
	if err := os.WriteFile(walPath, append(append([]byte(nil), preCompact...), postCompact...), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := openStore(t, dir, Options{})
	defer s2.Close()
	if len(rec.Quarantined) != 0 {
		t.Fatalf("quarantined: %+v", rec.Quarantined)
	}
	rd := rec.Datasets[0]
	if rd.Store.Rows() != 8 || rd.Fingerprint != want {
		t.Fatalf("recovered %d rows fp=%s, want 8 fp=%s", rd.Store.Rows(), rd.Fingerprint, want)
	}
	if rd.Replayed != 1 {
		t.Fatalf("replayed %d, want 1 (covered records skipped)", rd.Replayed)
	}
}

func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{SnapshotEvery: -1})
	d, f := mustCreate(t, s, "ds-snapbad", testRows(0, 5))
	mustAppend(t, d, f, testRows(5, 3))
	if err := d.compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snapPath := filepath.Join(dir, "datasets", "ds-snapbad", "snapshot.snap")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := openStore(t, dir, Options{})
	defer s2.Close()
	if len(rec.Quarantined) != 1 || !strings.Contains(rec.Quarantined[0].Reason, "snapshot") {
		t.Fatalf("recovery %+v", rec)
	}
}

// duplicateDictSnapshot hand-builds a CRC-valid snapshot whose one
// dictionary holds "Paris" twice, with one row on each code. Its recorded
// fingerprint matches the decoded strings, so only the duplicate check
// can tell that the two rows would fall into different partition classes.
func duplicateDictSnapshot() []byte {
	p := putString(nil, "t/dup")
	p = putUvarint(p, 1) // attributes
	p = putString(p, "city")
	p = putUvarint(p, 2) // rows
	p = putUvarint(p, 2) // dictionary size
	p = putString(p, "Paris")
	p = putString(p, "Paris")
	p = putUvarint(p, 0)
	p = putUvarint(p, 1)
	rel, err := relation.FromRows([]string{"city"}, [][]string{{"Paris"}, {"Paris"}})
	if err != nil {
		panic(err)
	}
	p = putString(p, FingerprintOf(rel).Sum())
	return appendFrame(append([]byte(nil), snapshotMagic...), p)
}

func TestDuplicateDictionaryQuarantined(t *testing.T) {
	data := duplicateDictSnapshot()
	// The file itself is well formed: the store constructor is what
	// refuses it.
	openSnapshotBytes(t, data)
	dir := t.TempDir()
	dsDir := filepath.Join(dir, "datasets", "ds-dup")
	if err := os.MkdirAll(dsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dsDir, "snapshot.snap"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := openStore(t, dir, Options{})
	defer s.Close()
	if len(rec.Datasets) != 0 || len(rec.Quarantined) != 1 ||
		!strings.Contains(rec.Quarantined[0].Reason, "duplicate dictionary value") {
		t.Fatalf("recovery %+v", rec)
	}
}

// outOfOrderSnapshot is a well-formed snapshot (valid frame and checksum,
// every code in its dictionary's range) whose one column opens with code
// 1: it breaks the first-occurrence order partition.SingleFromCodes
// relies on, so accepting it would give classes out of canonical order.
func outOfOrderSnapshot() []byte {
	p := putString(nil, "t/order")
	p = putUvarint(p, 1) // attributes
	p = putString(p, "city")
	p = putUvarint(p, 3) // rows
	p = putUvarint(p, 2) // dictionary size
	p = putString(p, "Paris")
	p = putString(p, "Lyon")
	for _, code := range []uint64{1, 0, 1} {
		p = putUvarint(p, code)
	}
	rel, err := relation.FromRows([]string{"city"}, [][]string{{"Lyon"}, {"Paris"}, {"Lyon"}})
	if err != nil {
		panic(err)
	}
	p = putString(p, FingerprintOf(rel).Sum())
	return appendFrame(append([]byte(nil), snapshotMagic...), p)
}

// TestOutOfOrderCodesRefused: a snapshot whose codes break
// first-occurrence order opens (its frame is sound), but reading its
// column fails, and so does recovery, which adopts the columns through
// relation.StoreOf: the dataset is quarantined, never served with wrong
// classes.
func TestOutOfOrderCodesRefused(t *testing.T) {
	data := outOfOrderSnapshot()
	sr := openSnapshotBytes(t, data)
	if _, _, err := sr.Column(0); err == nil || !strings.Contains(err.Error(), "first-occurrence order") {
		t.Fatalf("Column err = %v, want a first-occurrence order error", err)
	}
	if _, err := relation.StoreOf(sr); err == nil {
		t.Fatal("StoreOf adopted out-of-order codes")
	}
	dir := t.TempDir()
	dsDir := filepath.Join(dir, "datasets", "ds-order")
	if err := os.MkdirAll(dsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dsDir, "snapshot.snap"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := openStore(t, dir, Options{})
	defer s.Close()
	if len(rec.Datasets) != 0 || len(rec.Quarantined) != 1 ||
		!strings.Contains(rec.Quarantined[0].Reason, "first-occurrence order") {
		t.Fatalf("recovery %+v", rec)
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	rows := testRows(0, 50)
	view := viewOf(rows)
	fp := FingerprintOf(view).Sum()
	sr := openSnapshotBytes(t, encodeSnapshot("t/round", view, fp))
	if sr.Name() != "t/round" || sr.Fingerprint() != fp || sr.Rows() != 50 {
		t.Fatalf("decoded name=%q fp=%s rows=%d", sr.Name(), sr.Fingerprint(), sr.Rows())
	}
	st, err := relation.StoreOf(sr)
	if err != nil {
		t.Fatalf("store from snapshot: %v", err)
	}
	back := st.View()
	for i := range rows {
		for a := range rows[i] {
			if back.Value(i, a) != rows[i][a] {
				t.Fatalf("row %d attr %d: %q != %q", i, a, back.Value(i, a), rows[i][a])
			}
		}
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	// Concurrent appenders on one dataset must all become durable, and
	// group commit should need fewer fsyncs than records under contention.
	// Correctness, not batching, is asserted — timing decides the latter.
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{SnapshotEvery: -1})
	d, m := mustCreate(t, s, "ds-group", nil)

	const workers = 8
	const perWorker = 16
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Serialise the logical commit (as the registry does under
				// its dataset lock) but sync outside it.
				mu.Lock()
				batch := testRows(m.st.Rows(), 2)
				tok, err := d.Append(batch, m.add(t, batch), m.Sum())
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := d.Sync(tok); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	want := m.Sum()
	st := s.Stats()
	if st.AppendRecords != workers*perWorker {
		t.Fatalf("AppendRecords = %d, want %d", st.AppendRecords, workers*perWorker)
	}
	if st.Syncs+st.BatchedRecords < st.AppendRecords {
		t.Fatalf("accounting: %d syncs + %d batched < %d records", st.Syncs, st.BatchedRecords, st.AppendRecords)
	}
	s.Close()

	_, rec := openStore(t, dir, Options{})
	rd := rec.Datasets[0]
	if rd.Store.Rows() != workers*perWorker*2 || rd.Fingerprint != want {
		t.Fatalf("recovered %d rows fp=%s, want %d fp=%s", rd.Store.Rows(), rd.Fingerprint, workers*perWorker*2, want)
	}
}

func TestWriteFaultMarksBroken(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{})
	d, f := mustCreate(t, s, "ds-wf", testRows(0, 3))
	mustAppend(t, d, f, testRows(3, 2))
	durableFP := f.Sum()

	boom := errors.New("injected write fault")
	faultinject.Set(faultinject.DurableWrite, faultinject.FailWith(boom))
	if _, err := d.Append(testRows(5, 2), viewOf(testRows(0, 7)), "whatever"); !errors.Is(err, boom) {
		t.Fatalf("Append under fault: %v", err)
	}
	faultinject.Reset()
	// Sticky: the fault is cleared but the dataset stays read-only.
	if _, err := d.Append(testRows(5, 2), viewOf(testRows(0, 7)), "whatever"); err == nil {
		t.Fatal("broken dataset accepted an append")
	}
	if !d.broken() {
		t.Fatal("dataset not marked broken")
	}
	if st := s.Stats(); st.Broken != 1 {
		t.Fatalf("Stats.Broken = %d", st.Broken)
	}
	s.Close()

	// Reboot recovers the last durable prefix, cleanly.
	_, rec := openStore(t, dir, Options{})
	rd := rec.Datasets[0]
	if rd.Store.Rows() != 5 || rd.Fingerprint != durableFP {
		t.Fatalf("recovered %d rows fp=%s, want 5 fp=%s", rd.Store.Rows(), rd.Fingerprint, durableFP)
	}
}

func TestFsyncFaultMarksBroken(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{})
	d, f := mustCreate(t, s, "ds-ff", testRows(0, 3))

	boom := errors.New("injected fsync fault")
	faultinject.Set(faultinject.DurableFsync, faultinject.FailWith(boom))
	row := [][]string{{"x", "y", "z"}}
	tok, err := d.Append(row, f.add(t, row), f.Sum())
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := d.Sync(tok); !errors.Is(err, boom) {
		t.Fatalf("Sync under fault: %v", err)
	}
	faultinject.Reset()
	if !d.broken() {
		t.Fatal("fsync failure did not mark the dataset broken")
	}
}

func TestRenameFaultLeavesWALAuthoritative(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{SnapshotEvery: -1})
	d, f := mustCreate(t, s, "ds-rn", testRows(0, 4))
	mustAppend(t, d, f, testRows(4, 4))
	want := f.Sum()

	boom := errors.New("injected rename fault")
	faultinject.Set(faultinject.DurableRename, faultinject.FailWith(boom))
	if err := d.compact(); !errors.Is(err, boom) {
		t.Fatalf("compact under fault: %v", err)
	}
	faultinject.Reset()
	if d.broken() {
		t.Fatal("failed compaction must not break the dataset")
	}
	if st := s.Stats(); st.CompactErrors != 1 {
		t.Fatalf("CompactErrors = %d", st.CompactErrors)
	}
	// No stray temp file, and the dataset still appends and compacts.
	if _, err := os.Stat(filepath.Join(dir, "datasets", "ds-rn", "snapshot.tmp")); !os.IsNotExist(err) {
		t.Fatal("snapshot.tmp left behind")
	}
	if err := d.compact(); err != nil {
		t.Fatalf("retry compact: %v", err)
	}
	s.Close()

	_, rec := openStore(t, dir, Options{})
	rd := rec.Datasets[0]
	if rd.Store.Rows() != 8 || rd.Fingerprint != want {
		t.Fatalf("recovered %d rows fp=%s after failed+retried compaction", rd.Store.Rows(), rd.Fingerprint)
	}
}

func TestReplayFaultQuarantines(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{})
	d, f := mustCreate(t, s, "ds-rp", testRows(0, 3))
	mustAppend(t, d, f, testRows(3, 2))
	s.Close()

	boom := errors.New("injected replay fault")
	faultinject.Set(faultinject.DurableReplay, faultinject.FailWith(boom))
	s2, rec := openStore(t, dir, Options{})
	faultinject.Reset()
	defer s2.Close()
	if len(rec.Quarantined) != 1 || !strings.Contains(rec.Quarantined[0].Reason, "replay fault") {
		t.Fatalf("recovery under replay fault: %+v", rec)
	}
}

func TestCreateFaultLeavesNoResidue(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{})
	boom := errors.New("injected create fault")
	faultinject.Set(faultinject.DurableWrite, faultinject.FailWith(boom))
	reg := viewOf(testRows(0, 2))
	if _, err := s.Create("ds-cf", "t/cf", reg, "fp"); !errors.Is(err, boom) {
		t.Fatalf("Create under fault: %v", err)
	}
	faultinject.Reset()
	if _, err := os.Stat(filepath.Join(dir, "datasets", "ds-cf")); !os.IsNotExist(err) {
		t.Fatal("failed Create left its directory behind")
	}
	// The id is reusable after the failure.
	if _, err := s.Create("ds-cf", "t/cf", reg, FingerprintOf(reg).Sum()); err != nil {
		t.Fatalf("Create retry: %v", err)
	}
}

func TestTokenSurvivesCompaction(t *testing.T) {
	// A token taken before a compaction must still resolve after it:
	// logical offsets never rewind with the file truncate.
	dir := t.TempDir()
	s, _ := openStore(t, dir, Options{SnapshotEvery: -1})
	d, f := mustCreate(t, s, "ds-tok", testRows(0, 2))
	row := [][]string{{"a", "b", "c"}}
	tok, err := d.Append(row, f.add(t, row), f.Sum())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.compact(); err != nil {
		t.Fatal(err)
	}
	// The snapshot made the record durable; Sync must return immediately.
	if err := d.Sync(tok); err != nil {
		t.Fatalf("Sync on pre-compaction token: %v", err)
	}
	row = [][]string{{"d", "e", "f"}}
	tok2, err := d.Append(row, f.add(t, row), f.Sum())
	if err != nil {
		t.Fatal(err)
	}
	if tok2 <= tok {
		t.Fatalf("token rewound across compaction: %d then %d", tok, tok2)
	}
	if err := d.Sync(tok2); err != nil {
		t.Fatal(err)
	}
}

func TestScanWALClassification(t *testing.T) {
	view := viewOf(testRows(0, 2))
	f := FingerprintOf(view)
	reg := appendFrame(nil, encodeRegister("t/s", view, f.Sum()))
	f.AddRow([]string{"q", "w", "e"})
	app := appendFrame(nil, encodeAppend(3, [][]string{{"q", "w", "e"}}, f.Sum()))
	log := append(append([]byte(nil), reg...), app...)

	cases := []struct {
		name    string
		data    []byte
		recs    int
		torn    bool
		badness string
	}{
		{"empty", nil, 0, false, ""},
		{"clean", log, 2, false, ""},
		{"short header", log[:len(reg)+3], 1, true, ""},
		{"short payload", log[:len(reg)+frameHeaderLen+2], 1, true, ""},
		{"torn final crc", flipLast(log), 1, true, ""},
		{"mid-log crc", flipAt(log, len(reg)/2), 0, false, "checksum mismatch"},
		// Garbage scans as torn-at-zero: a huge bogus length field is
		// indistinguishable from a torn length write. The fingerprint
		// check downstream is what rejects a "recovered" empty prefix.
		{"garbage", []byte("not a wal at all, definitely not"), 0, true, ""},
	}
	for _, tc := range cases {
		recs, _, torn, reason := scanWAL(tc.data)
		if len(recs) != tc.recs || torn != tc.torn {
			t.Errorf("%s: recs=%d torn=%v, want %d/%v (reason %q)", tc.name, len(recs), torn, tc.recs, tc.torn, reason)
		}
		if tc.badness == "" && reason != "" {
			t.Errorf("%s: unexpected quarantine reason %q", tc.name, reason)
		}
		if tc.badness != "" && !strings.Contains(reason, tc.badness) {
			t.Errorf("%s: reason %q, want %q", tc.name, reason, tc.badness)
		}
	}
}

func flipLast(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 0x10
	return out
}

func flipAt(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x10
	return out
}

func TestFingerprintMatchesIncremental(t *testing.T) {
	rows := testRows(0, 9)
	f := NewFingerprint(testNames)
	for _, r := range rows {
		f.AddRow(r)
	}
	if got, want := f.Sum(), FingerprintOf(viewOf(rows)).Sum(); got != want {
		t.Fatalf("incremental %s != one-shot %s", got, want)
	}
	// Sum is non-consuming.
	if f.Sum() != f.Sum() {
		t.Fatal("Sum consumed the hash state")
	}
}
