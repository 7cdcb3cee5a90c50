package durable

// Streamed snapshot reads must agree exactly with the relation the
// snapshot was encoded from, and reject damage loudly.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/relation"
)

func writeTestSnapshot(t *testing.T, rows int) (path string, r *relation.Relation) {
	t.Helper()
	data := make([][]string, rows)
	for i := range data {
		data[i] = []string{
			"c" + strconv.Itoa(i%7),
			strconv.Itoa(i % 13),
			"s" + strconv.Itoa(i%3),
		}
	}
	r, err := relation.FromRows([]string{"city", "zip", "state"}, data)
	if err != nil {
		t.Fatal(err)
	}
	return writeSnapshotFile(t, encodeSnapshot("places", r, "fp-test")), r
}

// writeSnapshotFile writes snapshot bytes to a fresh temp file.
func writeSnapshotFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openSnapshotBytes opens snapshot bytes through the one decoder, closing
// the reader when the test ends.
func openSnapshotBytes(t *testing.T, data []byte) *SnapshotReader {
	t.Helper()
	sr, err := OpenSnapshotStream(writeSnapshotFile(t, data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sr.Close() })
	return sr
}

func TestSnapshotStreamMatchesDecode(t *testing.T) {
	path, r := writeTestSnapshot(t, 200)
	sr, err := OpenSnapshotStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()

	if sr.Name() != "places" || sr.Fingerprint() != "fp-test" {
		t.Fatalf("metadata = %q/%q", sr.Name(), sr.Fingerprint())
	}
	if sr.Arity() != r.Arity() || sr.Rows() != r.Rows() {
		t.Fatalf("shape = %d×%d, want %d×%d", sr.Arity(), sr.Rows(), r.Arity(), r.Rows())
	}
	for a, name := range r.Names() {
		if sr.Names()[a] != name {
			t.Fatalf("name[%d] = %q, want %q", a, sr.Names()[a], name)
		}
		codes, dom, err := sr.Column(a)
		if err != nil {
			t.Fatal(err)
		}
		if dom != r.DomainSize(a) {
			t.Fatalf("column %d domain = %d, want %d", a, dom, r.DomainSize(a))
		}
		for tt, code := range codes {
			if code != r.Code(tt, a) {
				t.Fatalf("column %d row %d code = %d, want %d", a, tt, code, r.Code(tt, a))
			}
		}
		dict, err := sr.DictPrefix(a, sr.DomainSize(a))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range dict {
			if v != r.ValueForCode(a, i) {
				t.Fatalf("dict %d[%d] = %q, want %q", a, i, v, r.ValueForCode(a, i))
			}
		}
	}
}

func TestSnapshotStreamConcurrentColumns(t *testing.T) {
	path, r := writeTestSnapshot(t, 500)
	sr, err := OpenSnapshotStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < sr.Arity(); a++ {
				codes, _, err := sr.Column(a)
				if err != nil {
					t.Error(err)
					return
				}
				for tt, code := range codes {
					if code != r.Code(tt, a) {
						t.Errorf("column %d row %d mismatch", a, tt)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestSnapshotStreamRejectsDamage(t *testing.T) {
	path, _ := writeTestSnapshot(t, 100)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bit-flip", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xAB) }},
		{"torn-header", func(b []byte) []byte { return b[:len(snapshotMagic)+3] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "snapshot.snap")
			if err := os.WriteFile(p, tc.mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if sr, err := OpenSnapshotStream(p); err == nil {
				sr.Close()
				t.Fatalf("damaged snapshot opened cleanly")
			}
		})
	}
}

// TestSnapshotStreamEmptyDataset covers the zero-row edge: schema without
// tuples streams back as cleanly as it decodes.
func TestSnapshotStreamEmptyDataset(t *testing.T) {
	empty, err := relation.FromRows([]string{"a", "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr := openSnapshotBytes(t, encodeSnapshot("empty", empty, "fp"))
	if sr.Rows() != 0 || sr.Arity() != 2 {
		t.Fatalf("shape = %d×%d", sr.Arity(), sr.Rows())
	}
	codes, dom, err := sr.Column(0)
	if err != nil || len(codes) != 0 || dom != 0 {
		t.Fatalf("Column = %v/%d/%v", codes, dom, err)
	}
}

// TestSnapshotStreamLargeStrings exercises chunk-boundary spanning: values
// longer than the scanner's buffer must still parse and verify.
func TestSnapshotStreamLargeStrings(t *testing.T) {
	big := make([]byte, 90_000) // larger than the 64 KiB scanner chunk
	for i := range big {
		big[i] = byte('a' + i%26)
	}
	var rows [][]string
	for i := 0; i < 3; i++ {
		rows = append(rows, []string{string(big) + fmt.Sprint(i)})
	}
	blobs, err := relation.FromRows([]string{"blob"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	sr := openSnapshotBytes(t, encodeSnapshot("blobs", blobs, "fp"))
	dict, err := sr.DictPrefix(0, sr.DomainSize(0))
	if err != nil || len(dict) != 3 {
		t.Fatalf("Dict = %d values, err %v", len(dict), err)
	}
	if dict[1] != string(big)+"1" {
		t.Fatalf("large dictionary value corrupted in transit")
	}
}
