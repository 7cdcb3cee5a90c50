// Package relation provides the in-memory relation substrate on which FD
// discovery operates.
//
// A Relation is a dictionary-encoded column store: each column maps the
// original string values to dense integer codes, and stores one code per
// tuple. Two tuples agree on attribute A exactly when their codes for A are
// equal, so every downstream algorithm (partitions, agree sets, TANE) works
// purely on integers.
//
// The paper reads relations over ODBC from Oracle/MS Access; this package
// substitutes CSV files plus an in-memory store (see DESIGN.md §6). Like
// the paper's setting, "database accesses are only performed during the
// computation of agree sets": discovery consumes only the stripped
// partition database derived from a Relation, never the raw values again
// (except to print real-world Armstrong relations).
package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/attrset"
)

// ErrTooManyAttributes is returned when a schema exceeds attrset.MaxAttrs.
var ErrTooManyAttributes = fmt.Errorf("relation: schema exceeds %d attributes", attrset.MaxAttrs)

// ErrRaggedRow is returned when a CSV row has a different arity than the
// header.
var ErrRaggedRow = errors.New("relation: row arity differs from schema")

// Relation is an immutable dictionary-encoded relation instance.
//
// Tuples are identified by their dense index 0..Rows()-1 — the paper's
// "positive integer unique to t". Note the paper defines a relation as a
// *set* of tuples; Load and FromRows keep duplicate rows by default.
// This is safe: duplicates change neither dep(r) nor ag(r) — the agree
// algorithms collapse couples of identical tuples (set semantics) — so
// Deduplicate is only needed to shrink storage.
type Relation struct {
	names []string
	// cols[a][t] is the dictionary code of tuple t on attribute a.
	cols [][]int
	// dicts[a][code] is the original string for that code, used to print
	// real-world Armstrong relations with values from the initial relation.
	dicts [][]string
	rows  int
}

// FromRows builds a relation from attribute names and string rows.
func FromRows(names []string, rows [][]string) (*Relation, error) {
	s, err := StoreFromRows(names, rows)
	if err != nil {
		return nil, err
	}
	return s.View(), nil
}

// FromCodes builds a relation directly from integer-coded columns,
// cols[a][t]. It is the fast path used by the synthetic data generator:
// dictionary strings are materialised lazily as the decimal representation
// of the code. All columns must have equal length.
func FromCodes(names []string, cols [][]int) (*Relation, error) {
	if !attrset.Valid(len(names)) {
		return nil, ErrTooManyAttributes
	}
	if len(cols) != len(names) {
		return nil, fmt.Errorf("relation: %d columns for %d attributes", len(cols), len(names))
	}
	rows := 0
	if len(cols) > 0 {
		rows = len(cols[0])
	}
	r := &Relation{
		names: append([]string(nil), names...),
		cols:  make([][]int, len(names)),
		dicts: make([][]string, len(names)),
		rows:  rows,
	}
	for a := range cols {
		if len(cols[a]) != rows {
			return nil, fmt.Errorf("relation: column %d has %d rows, want %d", a, len(cols[a]), rows)
		}
		// Re-encode into dense codes in first-occurrence order so that
		// dictionaries stay compact even if the input codes are sparse.
		dense := make(map[int]int)
		col := make([]int, rows)
		for t, v := range cols[a] {
			code, ok := dense[v]
			if !ok {
				code = len(r.dicts[a])
				dense[v] = code
				r.dicts[a] = append(r.dicts[a], strconv.Itoa(v))
			}
			col[t] = code
		}
		r.cols[a] = col
	}
	return r, nil
}

// Load reads a CSV relation from rd, encoding each record as it is read.
// If header is true the first record names the attributes; otherwise
// attributes are named col0, col1, ....
func Load(rd io.Reader, header bool) (*Relation, error) {
	s, err := LoadStore(rd, header)
	if err != nil {
		return nil, err
	}
	return s.View(), nil
}

// LoadFile reads a CSV relation from the named file.
func LoadFile(path string, header bool) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relation: %w", err)
	}
	defer f.Close()
	return Load(f, header)
}

// CSVSource is a single-use column source over CSV data (it satisfies
// partition.ColumnSource). NewCSVSource encodes the input in one pass
// through Load and drops the dictionaries; Column then hands each code
// column out once and releases it, so after a partition build has read
// every column only the stripped partitions stay resident.
type CSVSource struct {
	names []string
	rows  int
	cols  [][]int // nil once handed out
	doms  []int
}

// NewCSVSource reads CSV data into a single-use column source. If header
// is true the first record names the attributes.
func NewCSVSource(rd io.Reader, header bool) (*CSVSource, error) {
	r, err := Load(rd, header)
	if err != nil {
		return nil, err
	}
	s := &CSVSource{names: r.names, rows: r.rows, cols: r.cols, doms: make([]int, len(r.dicts))}
	for a, d := range r.dicts {
		s.doms[a] = len(d)
	}
	return s, nil
}

// Names returns the attribute names. The returned slice must not be
// modified.
func (s *CSVSource) Names() []string { return s.names }

// Arity returns the number of attributes.
func (s *CSVSource) Arity() int { return len(s.names) }

// Rows returns the number of tuples.
func (s *CSVSource) Rows() int { return s.rows }

// Column hands out attribute a's code column and domain size, then
// releases it: a second read of any column fails.
func (s *CSVSource) Column(a int) ([]int, int, error) {
	col := s.cols[a]
	if col == nil {
		return nil, 0, fmt.Errorf("relation: CSV source column %d already read (the source is single-use)", a)
	}
	s.cols[a] = nil
	return col, s.doms[a], nil
}

// WriteCSV writes the relation as CSV to w, with a header row.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	write := func(rec []string) error {
		// A record of exactly one empty field would serialise to a blank
		// line, which CSV readers skip — the tuple (or header) would
		// vanish on reload. Force quotes for that case; encoding/csv
		// offers no per-field quoting control.
		if len(rec) == 1 && rec[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			_, err := io.WriteString(w, "\"\"\n")
			return err
		}
		return cw.Write(rec)
	}
	if err := write(r.names); err != nil {
		return fmt.Errorf("relation: writing csv: %w", err)
	}
	row := make([]string, len(r.names))
	for t := 0; t < r.rows; t++ {
		for a := range r.names {
			row[a] = r.dicts[a][r.cols[a][t]]
		}
		if err := write(row); err != nil {
			return fmt.Errorf("relation: writing csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("relation: writing csv: %w", err)
	}
	return nil
}

// Rows returns the number of tuples |r|.
func (r *Relation) Rows() int { return r.rows }

// Arity returns the number of attributes |R|.
func (r *Relation) Arity() int { return len(r.names) }

// Schema returns the full attribute set R = {0..Arity()-1}.
func (r *Relation) Schema() attrset.Set { return attrset.Universe(len(r.names)) }

// Names returns the attribute names. The returned slice must not be
// modified.
func (r *Relation) Names() []string { return r.names }

// Name returns the name of attribute a.
func (r *Relation) Name(a attrset.Attr) string { return r.names[a] }

// Code returns the dictionary code of tuple t on attribute a.
func (r *Relation) Code(t int, a attrset.Attr) int { return r.cols[a][t] }

// Column returns attribute a's code column and its domain size, making a
// Relation a partition.ColumnSource; the error is always nil. The
// returned slice must not be modified.
func (r *Relation) Column(a attrset.Attr) ([]int, int, error) {
	return r.cols[a], len(r.dicts[a]), nil
}

// Value returns the original string value of tuple t on attribute a.
func (r *Relation) Value(t int, a attrset.Attr) string {
	return r.dicts[a][r.cols[a][t]]
}

// ValueForCode returns the original string for a dictionary code of
// attribute a.
func (r *Relation) ValueForCode(a attrset.Attr, code int) string {
	return r.dicts[a][code]
}

// DomainSize returns |π_A(r)|, the number of distinct values of attribute a
// in the relation. This is the quantity in the paper's Proposition 1
// existence condition for real-world Armstrong relations.
func (r *Relation) DomainSize(a attrset.Attr) int { return len(r.dicts[a]) }

// DictPrefix returns the values of codes 0..k-1 of attribute a, making a
// Relation an armstrong.Source; the error is always nil. The returned
// slice must not be modified.
func (r *Relation) DictPrefix(a attrset.Attr, k int) ([]string, error) {
	return r.dicts[a][:k], nil
}

// Agree reports whether tuples ti and tj agree on every attribute of X,
// i.e. ti[X] = tj[X].
func (r *Relation) Agree(ti, tj int, x attrset.Set) bool {
	ok := true
	x.ForEach(func(a attrset.Attr) {
		if r.cols[a][ti] != r.cols[a][tj] {
			ok = false
		}
	})
	return ok
}

// AgreeSet returns ag(ti, tj) = {A ∈ R | ti[A] = tj[A]} by direct value
// comparison. This is the primitive the naive agree-set algorithm pays for
// on every couple and the stripped-partition algorithms avoid.
func (r *Relation) AgreeSet(ti, tj int) attrset.Set {
	var s attrset.Set
	for a := range r.cols {
		if r.cols[a][ti] == r.cols[a][tj] {
			s.Add(a)
		}
	}
	return s
}

// Satisfies reports whether the functional dependency X → A holds in r, by
// definition: ∀ti,tj, ti[X] = tj[X] ⇒ ti[A] = tj[A]. It groups tuples by
// their X-projection in a hash map, so it runs in O(|r|·|X|) time. Use it
// as the ground-truth oracle in tests; discovery algorithms use partitions
// instead.
func (r *Relation) Satisfies(x attrset.Set, a attrset.Attr) bool {
	attrs := x.Attrs()
	groups := make(map[string]int, r.rows)
	var key strings.Builder
	for t := 0; t < r.rows; t++ {
		key.Reset()
		for _, xa := range attrs {
			key.WriteString(strconv.Itoa(r.cols[xa][t]))
			key.WriteByte('|')
		}
		k := key.String()
		if prev, ok := groups[k]; ok {
			if prev != r.cols[a][t] {
				return false
			}
		} else {
			groups[k] = r.cols[a][t]
		}
	}
	return true
}

// Project returns a new relation containing only the attributes of X, in
// increasing index order, with all tuples preserved (duplicates kept).
func (r *Relation) Project(x attrset.Set) *Relation {
	attrs := x.Attrs()
	names := make([]string, len(attrs))
	cols := make([][]int, len(attrs))
	dicts := make([][]string, len(attrs))
	for i, a := range attrs {
		names[i] = r.names[a]
		cols[i] = r.cols[a] // immutable; safe to share
		dicts[i] = r.dicts[a]
	}
	return &Relation{names: names, cols: cols, dicts: dicts, rows: r.rows}
}

// Restrict returns a new relation containing only the tuples whose indices
// are listed, in the given order. Indices may repeat.
func (r *Relation) Restrict(tuples []int) *Relation {
	cols := make([][]int, len(r.names))
	for a := range r.cols {
		col := make([]int, len(tuples))
		for i, t := range tuples {
			col[i] = r.cols[a][t]
		}
		cols[a] = col
	}
	return &Relation{
		names: r.names,
		cols:  cols,
		dicts: r.dicts,
		rows:  len(tuples),
	}
}

// Deduplicate returns a relation with duplicate tuples removed (first
// occurrence kept), restoring strict set-of-tuples semantics.
func (r *Relation) Deduplicate() *Relation {
	seen := make(map[string]struct{}, r.rows)
	var keep []int
	var key strings.Builder
	for t := 0; t < r.rows; t++ {
		key.Reset()
		for a := range r.cols {
			key.WriteString(strconv.Itoa(r.cols[a][t]))
			key.WriteByte('|')
		}
		k := key.String()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keep = append(keep, t)
	}
	if len(keep) == r.rows {
		return r
	}
	return r.Restrict(keep)
}

// Row returns the string values of tuple t in schema order.
func (r *Relation) Row(t int) []string {
	out := make([]string, len(r.names))
	for a := range r.cols {
		out[a] = r.dicts[a][r.cols[a][t]]
	}
	return out
}

// String renders the relation as an aligned text table (for examples and
// debugging; not for large relations).
func (r *Relation) String() string {
	widths := make([]int, len(r.names))
	for a, n := range r.names {
		widths[a] = len(n)
		for _, v := range r.dicts[a] {
			if len(v) > widths[a] {
				widths[a] = len(v)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for a, c := range cells {
			if a > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[a]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.names)
	for t := 0; t < r.rows; t++ {
		writeRow(r.Row(t))
	}
	return b.String()
}
