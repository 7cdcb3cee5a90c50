package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/attrset"
)

// Store is an append-only dictionary-encoded column store: the columns,
// the dictionaries and the value→code index that encode builds, kept
// alive so that rows can be appended after loading. Codes are assigned
// in first-appearance order, so a store and FromRows over the same rows
// hold identical columns and dictionaries.
//
// View hands out the first Rows() tuples as an immutable Relation that
// shares the store's memory. Appends write only past the rows a view
// covers, and every view slice is capped at its length, so growth
// reallocates rather than showing through: a view never changes.
// A Store is not safe for concurrent use; capturing a view must be
// ordered with Append (the caller's lock), but the views themselves may
// be read concurrently with later appends.
type Store struct {
	rel   Relation         // cols, dicts and rows grow in place
	index []map[string]int // index[a][v] is v's code on attribute a
}

// StoreFromRows returns a store holding the given rows; with no rows it
// is an empty store for the schema.
func StoreFromRows(names []string, rows [][]string) (*Store, error) {
	t := 0
	return encode(names, len(rows), func() ([]string, error) {
		if t == len(rows) {
			return nil, io.EOF
		}
		t++
		return rows[t-1], nil
	})
}

// Source is what StoreOf adopts: each attribute's code column, domain
// size and dictionary. A Relation and a durable snapshot reader are both
// sources.
type Source interface {
	Names() []string
	Rows() int
	Column(a int) ([]int, int, error)
	DictPrefix(a, k int) ([]string, error)
}

// StoreOf returns a store holding src's tuples. It adopts src's columns
// and dictionaries without re-encoding them, and only indexes the
// dictionary values; src is never modified, since the adopted slices are
// capped. A dictionary that repeats a value is refused: the value would
// hold two codes and silently split its partition class.
func StoreOf(src Source) (*Store, error) {
	names := src.Names()
	if !attrset.Valid(len(names)) {
		return nil, ErrTooManyAttributes
	}
	n := src.Rows()
	s := &Store{
		rel: Relation{
			names: names,
			cols:  make([][]int, len(names)),
			dicts: make([][]string, len(names)),
			rows:  n,
		},
		index: make([]map[string]int, len(names)),
	}
	for a := range names {
		col, dom, err := src.Column(a)
		if err != nil {
			return nil, err
		}
		dict, err := src.DictPrefix(a, dom)
		if err != nil {
			return nil, err
		}
		s.rel.cols[a] = col[:n:n]
		s.rel.dicts[a] = dict[:dom:dom]
		s.index[a] = make(map[string]int, dom)
		for code, v := range dict {
			s.index[a][v] = code
		}
		if len(s.index[a]) != dom {
			return nil, fmt.Errorf("relation: duplicate dictionary value on attribute %d", a)
		}
	}
	return s, nil
}

// LoadStore reads a CSV relation from rd into a store, encoding each
// record as it is read. If header is true the first record names the
// attributes; otherwise attributes are named col0, col1, ....
func LoadStore(rd io.Reader, header bool) (*Store, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1 // we validate arity ourselves for better errors
	cr.ReuseRecord = true
	read := func() ([]string, error) {
		rec, err := cr.Read()
		if err != nil && err != io.EOF {
			err = fmt.Errorf("relation: reading csv: %w", err)
		}
		return rec, err
	}
	first, err := read()
	if err == io.EOF {
		return nil, errors.New("relation: empty input")
	}
	if err != nil {
		return nil, err
	}
	if header {
		return encode(first, 0, read)
	}
	names := make([]string, len(first))
	for i := range names {
		names[i] = "col" + strconv.Itoa(i)
	}
	pending := first
	return encode(names, 0, func() ([]string, error) {
		if row := pending; row != nil {
			pending = nil
			return row, nil
		}
		return read()
	})
}

// encode builds a store from the rows next yields until io.EOF — the one
// encoder behind every store and every relation read from strings. It
// keeps no reference to a yielded row slice, so next may reuse it;
// rowsHint presizes the columns.
func encode(names []string, rowsHint int, next func() ([]string, error)) (*Store, error) {
	if !attrset.Valid(len(names)) {
		return nil, ErrTooManyAttributes
	}
	s := &Store{
		rel: Relation{
			names: append([]string(nil), names...),
			cols:  make([][]int, len(names)),
			dicts: make([][]string, len(names)),
		},
		index: make([]map[string]int, len(names)),
	}
	for a := range names {
		s.rel.cols[a] = make([]int, 0, rowsHint)
		s.index[a] = make(map[string]int)
	}
	for {
		row, err := next()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		if err := s.Append(row); err != nil {
			return nil, err
		}
	}
}

// Lookup returns value v's code on attribute a. A value the store has
// not seen gets the provisional code DomainSize(a), which no stored
// tuple holds; it becomes v's code only if the next Append carries v.
func (s *Store) Lookup(a int, v string) int {
	if code, ok := s.index[a][v]; ok {
		return code
	}
	return len(s.rel.dicts[a])
}

// Append encodes row and adds it as tuple Rows(). It keeps no reference
// to the row slice.
func (s *Store) Append(row []string) error {
	r := &s.rel
	if len(row) != len(r.names) {
		return fmt.Errorf("%w: row %d has %d fields, schema has %d",
			ErrRaggedRow, r.rows, len(row), len(r.names))
	}
	for a, v := range row {
		code, ok := s.index[a][v]
		if !ok {
			code = len(r.dicts[a])
			s.index[a][v] = code
			r.dicts[a] = append(r.dicts[a], v)
		}
		r.cols[a] = append(r.cols[a], code)
	}
	r.rows++
	return nil
}

// View returns the store's current tuples as an immutable Relation that
// shares the store's memory, in O(|R|).
func (s *Store) View() *Relation { return s.rel.view() }

// Rows returns the number of stored tuples.
func (s *Store) Rows() int { return s.rel.rows }

// Arity returns the number of attributes.
func (s *Store) Arity() int { return len(s.rel.names) }

// Names returns the attribute names. The returned slice must not be
// modified.
func (s *Store) Names() []string { return s.rel.names }

// Code returns the dictionary code of tuple t on attribute a.
func (s *Store) Code(t, a int) int { return s.rel.cols[a][t] }

// view returns r with every column and dictionary capped at its length,
// so appends past them can never show through.
func (r *Relation) view() *Relation {
	n := r.rows
	v := &Relation{
		names: r.names,
		cols:  make([][]int, len(r.cols)),
		dicts: make([][]string, len(r.dicts)),
		rows:  n,
	}
	for a := range r.cols {
		v.cols[a] = r.cols[a][:n:n]
		d := len(r.dicts[a])
		v.dicts[a] = r.dicts[a][:d:d]
	}
	return v
}
