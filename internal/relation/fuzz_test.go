package relation

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadCSV asserts that the CSV loader never panics on arbitrary byte
// input, and that accepted relations round-trip through WriteCSV: loading
// a written relation is lossless.
//
// The invariant is double-write idempotence — write(load(x)) equals
// write(load(write(load(x)))) — rather than input-byte identity, because
// encoding/csv canonicalises on the way in (CRLF normalisation in quoted
// fields, quote stripping), so the original bytes are not recoverable.
// After one write the representation is canonical and must be a fixed
// point.
func FuzzLoadCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n1,3\n"), true)
	f.Add([]byte("a,b\n1,2"), false)
	f.Add([]byte("name\n\"multi\nline\"\n"), true)
	f.Add([]byte("x,y,z\n,,\n,,\n"), true)
	f.Add([]byte("\"q\"\"q\",v\r\n1,2\r\n"), true)
	f.Add([]byte(""), true)
	f.Add([]byte("a,b\n1\n"), true) // ragged row: rejected by FromRows
	f.Add([]byte("héllo,wörld\n✓,✗\n"), true)
	f.Fuzz(func(t *testing.T, data []byte, header bool) {
		r, err := Load(bytes.NewReader(data), header)
		if err != nil {
			return // rejected input; only the absence of a panic matters
		}

		var first bytes.Buffer
		if err := r.WriteCSV(&first); err != nil {
			t.Fatalf("WriteCSV failed on a loaded relation: %v", err)
		}
		// A written relation always has a header row, so reload with
		// header=true regardless of how the original was read.
		r2, err := Load(bytes.NewReader(first.Bytes()), true)
		if err != nil {
			t.Fatalf("reloading WriteCSV output failed: %v\noutput:\n%s", err, first.String())
		}
		if r2.Rows() != r.Rows() || r2.Arity() != r.Arity() {
			t.Fatalf("round trip changed shape: %d×%d -> %d×%d",
				r.Rows(), r.Arity(), r2.Rows(), r2.Arity())
		}
		for a := range r.Names() {
			if got, want := r2.Name(a), r.Name(a); got != want {
				t.Fatalf("round trip changed attribute %d name: %q -> %q", a, want, got)
			}
			for tu := 0; tu < r.Rows(); tu++ {
				if got, want := r2.Value(tu, a), r.Value(tu, a); got != want {
					t.Fatalf("round trip changed value at (%d,%d): %q -> %q", tu, a, want, got)
				}
			}
		}
		var second bytes.Buffer
		if err := r2.WriteCSV(&second); err != nil {
			t.Fatalf("second WriteCSV failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteCSV is not a fixed point:\nfirst:\n%s\nsecond:\n%s",
				first.String(), second.String())
		}
	})
}

// FuzzFromRows asserts the constructor never panics and enforces its
// documented invariants (rectangular input, attribute count within the
// bit-vector limit) by returning errors instead.
func FuzzFromRows(f *testing.F) {
	f.Add("a|b", "1|2;3|4")
	f.Add("", "")
	f.Add("x", "1;2;1")
	f.Add("a|a", "v|v")
	f.Fuzz(func(t *testing.T, namesSpec, rowsSpec string) {
		names := strings.Split(namesSpec, "|")
		var rows [][]string
		if rowsSpec != "" {
			for _, line := range strings.Split(rowsSpec, ";") {
				rows = append(rows, strings.Split(line, "|"))
			}
		}
		r, err := FromRows(names, rows)
		if err != nil {
			return
		}
		if r.Arity() != len(names) || r.Rows() != len(rows) {
			t.Fatalf("accepted relation has shape %d×%d, input was %d×%d",
				r.Rows(), r.Arity(), len(rows), len(names))
		}
	})
}
