// Package incremental maintains functional-dependency discovery state
// under tuple insertions — the paper's closing research direction
// (maintaining discovered dependencies while the database evolves, §6).
//
// The key observation is that ag(r) is monotone under inserts: adding a
// tuple t only adds the agree sets ag(t, t') for existing tuples t'.
// Tuples that share no attribute value with t contribute the empty agree
// set, which is tracked by a counter instead of enumeration, so an insert
// costs O(candidates · |R|) where candidates are the tuples sharing at
// least one value with t — exactly the couples Dep-Miner's Lemma 1 would
// generate for t.
//
// Dependencies are re-derived on demand from the maintained agree-set
// family via the ordinary CMAX_SET → LEFT_HAND_SIDE steps (steps 2–4 of
// the pipeline), whose cost depends on |ag(r)| and |R| but not on |r|.
//
// Deletions are not supported: removing a tuple can invalidate agree sets
// non-monotonically, requiring a rebuild (call New again). This matches
// the dominant dba workload the paper targets — analysing growing data.
package incremental

import (
	"context"
	"fmt"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/relation"
)

// Miner maintains discovery state for a growing relation.
type Miner struct {
	names []string
	// dicts[a] maps attribute a's string values to dense codes.
	dicts []map[string]int
	// buckets[a][code] lists tuple ids holding that code.
	buckets [][][]int
	// cols[a][t] is tuple t's code on attribute a.
	cols [][]int
	// agree is the maintained ag(r) (excluding ∅, tracked separately).
	agree map[attrset.Set]struct{}
	// nonEmptyCouples counts couples with a non-empty agree set; when it
	// lags behind C(rows,2), some couple disagrees everywhere and
	// ∅ ∈ ag(r).
	nonEmptyCouples int
	rows            int
	// stamp dedups candidate tuples per insert.
	stamp   []int
	stampID int
}

// New creates an empty miner for the given schema.
func New(names []string) (*Miner, error) {
	if !attrset.Valid(len(names)) {
		return nil, fmt.Errorf("incremental: schema exceeds %d attributes", attrset.MaxAttrs)
	}
	m := &Miner{
		names:   append([]string(nil), names...),
		dicts:   make([]map[string]int, len(names)),
		buckets: make([][][]int, len(names)),
		cols:    make([][]int, len(names)),
		agree:   make(map[attrset.Set]struct{}),
	}
	for a := range names {
		m.dicts[a] = make(map[string]int)
	}
	return m, nil
}

// FromRelation builds a miner pre-loaded with a relation's tuples.
func FromRelation(r *relation.Relation) (*Miner, error) {
	return FromRelationCtx(context.Background(), r)
}

// FromRelationCtx is FromRelation under a context: loading aborts
// mid-relation (and mid-scan within a tuple) when ctx is cancelled,
// returning an error wrapping guard.ErrDeadline.
func FromRelationCtx(ctx context.Context, r *relation.Relation) (*Miner, error) {
	m, err := New(r.Names())
	if err != nil {
		return nil, err
	}
	for t := 0; t < r.Rows(); t++ {
		if err := m.InsertCtx(ctx, r.Row(t)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Rows returns the number of inserted tuples.
func (m *Miner) Rows() int { return m.rows }

// Arity returns |R|.
func (m *Miner) Arity() int { return len(m.names) }

// Names returns the schema's attribute names.
func (m *Miner) Names() []string { return m.names }

// Insert adds one tuple and updates ag(r).
func (m *Miner) Insert(row []string) error {
	return m.InsertCtx(context.Background(), row)
}

// insertCheckStride is how many candidate couples are processed between
// context checks during an insert's agree-set scan. The scan is the
// O(candidates · |R|) heart of an insert, so on wide or hot-value
// relations it can run long past any deadline if only checked at entry.
const insertCheckStride = 256

// InsertCtx adds one tuple and updates ag(r), honouring ctx cancellation
// mid-scan: the candidate sweep checks ctx every insertCheckStride
// couples and aborts with an error wrapping the typed guard.ErrDeadline
// (not a bare ctx error), so governed callers classify the outcome with
// one errors.Is test. An aborted insert leaves the miner's tuple state
// unchanged — agree sets are staged and committed only after the scan
// completes — so the session stays consistent and the insert can be
// retried.
func (m *Miner) InsertCtx(ctx context.Context, row []string) error {
	if len(row) != len(m.names) {
		return fmt.Errorf("incremental: row arity %d, schema %d", len(row), len(m.names))
	}
	if err := insertCtxErr(ctx); err != nil {
		return err
	}
	t := m.rows
	// Encode and collect candidate partners: tuples sharing ≥ 1 value.
	codes := make([]int, len(row))
	m.stampID++
	if len(m.stamp) < t {
		grown := make([]int, t*2+8)
		copy(grown, m.stamp)
		m.stamp = grown
	}
	var candidates []int
	for a, v := range row {
		code, ok := m.dicts[a][v]
		if !ok {
			code = len(m.buckets[a])
			m.dicts[a][v] = code
			m.buckets[a] = append(m.buckets[a], nil)
		}
		codes[a] = code
		for _, u := range m.buckets[a][code] {
			if m.stamp[u] != m.stampID {
				m.stamp[u] = m.stampID
				candidates = append(candidates, u)
			}
		}
	}
	// Agree sets of the new couples, staged so an abort commits nothing.
	staged := make([]attrset.Set, 0, len(candidates))
	for i, u := range candidates {
		if i%insertCheckStride == 0 {
			if err := insertCtxErr(ctx); err != nil {
				return err
			}
			if err := faultinject.Fire(faultinject.IncrementalInsert); err != nil {
				return err
			}
		}
		var s attrset.Set
		for a := range codes {
			if m.cols[a][u] == codes[a] {
				s.Add(a)
			}
		}
		staged = append(staged, s)
	}
	// Last abort point before the commit below becomes visible.
	if err := faultinject.Fire(faultinject.IncrementalInsert); err != nil {
		return err
	}
	// Commit: agree sets first, then the tuple itself.
	for _, s := range staged {
		m.agree[s] = struct{}{}
	}
	m.nonEmptyCouples += len(staged)
	for a, code := range codes {
		m.buckets[a][code] = append(m.buckets[a][code], t)
		m.cols[a] = append(m.cols[a], code)
	}
	m.rows++
	return nil
}

// insertCtxErr translates a cancelled or expired context into the typed
// guard.ErrDeadline sentinel, preserving the underlying cause for logs.
func insertCtxErr(ctx context.Context) error {
	if cause := ctx.Err(); cause != nil {
		return fmt.Errorf("incremental: insert aborted: %w (%v)", guard.ErrDeadline, cause)
	}
	return nil
}

// AgreeSets returns the maintained ag(r) in canonical order (∅ included
// when some couple disagrees everywhere).
func (m *Miner) AgreeSets() attrset.Family {
	out := make(attrset.Family, 0, len(m.agree)+1)
	for s := range m.agree {
		out = append(out, s)
	}
	if m.emptyCouplePresent() {
		out = append(out, attrset.Empty())
	}
	out.Sort()
	return out
}

func (m *Miner) emptyCouplePresent() bool {
	return m.nonEmptyCouples < m.rows*(m.rows-1)/2
}

// Cover derives the current canonical cover of minimal non-trivial FDs
// (steps 2–4 of the Dep-Miner pipeline over the maintained agree sets).
func (m *Miner) Cover(ctx context.Context) (fd.Cover, error) {
	res, err := m.derive(ctx)
	if err != nil {
		return nil, err
	}
	return res.FDs, nil
}

// MaxSets derives MAX(dep(r)) for the current state (for Armstrong
// construction).
func (m *Miner) MaxSets(ctx context.Context) (attrset.Family, error) {
	res, err := m.derive(ctx)
	if err != nil {
		return nil, err
	}
	return res.MaxSets, nil
}

// derive runs steps 2–4 of the pipeline over the maintained agree sets,
// on the sequential reference path: the cost is independent of |r| and
// too small to benefit from fan-out.
func (m *Miner) derive(ctx context.Context) (*core.Result, error) {
	in := core.Input{Agree: &agree.Result{Sets: m.AgreeSets()}, Arity: len(m.names)}
	return core.Run(ctx, in, core.Options{Workers: 1})
}

// Snapshot materialises the current tuples as a Relation (e.g. to build a
// real-world Armstrong relation with values from the data).
func (m *Miner) Snapshot() (*relation.Relation, error) {
	rows := make([][]string, m.rows)
	// Reverse dictionaries once.
	rev := make([][]string, len(m.names))
	for a := range m.names {
		rev[a] = make([]string, len(m.dicts[a]))
		for v, code := range m.dicts[a] {
			rev[a][code] = v
		}
	}
	for t := 0; t < m.rows; t++ {
		row := make([]string, len(m.names))
		for a := range m.names {
			row[a] = rev[a][m.cols[a][t]]
		}
		rows[t] = row
	}
	return relation.FromRows(m.names, rows)
}
