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
// A miner over existing tuples (FromStore) is seeded in one Algorithm 2
// sweep rather than one insert per tuple. The tuples live in one
// append-only relation.Store, which Snapshot hands out as zero-copy views.
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
	"repro/internal/partition"
	"repro/internal/relation"
)

// Miner maintains discovery state for a growing relation.
type Miner struct {
	// store holds the tuples: one append-only dictionary-encoded column
	// store, which Snapshot hands out as zero-copy views.
	store *relation.Store
	// buckets[a][code] lists, ascending, the tuples holding that code.
	buckets [][][]int32
	// agree is the maintained ag(r) (excluding ∅, tracked separately).
	agree agree.Accum
	// nonEmptyCouples counts couples with a non-empty agree set; when it
	// lags behind C(rows,2), some couple disagrees everywhere and
	// ∅ ∈ ag(r).
	nonEmptyCouples int
	// stamp dedups candidate tuples per insert.
	stamp   []int
	stampID int
}

// New creates an empty miner for the given schema.
func New(names []string) (*Miner, error) {
	s, err := relation.StoreFromRows(names, nil)
	if err != nil {
		return nil, fmt.Errorf("incremental: schema exceeds %d attributes", attrset.MaxAttrs)
	}
	return &Miner{store: s, buckets: make([][][]int32, len(names))}, nil
}

// FromStore builds a miner over the tuples of s, which it takes over:
// later inserts append to s. Instead of one insert per tuple it seeds
// ag(r) with one Algorithm 2 sweep (in memory, over workers goroutines,
// 0 meaning GOMAXPROCS), and builds the bucket index with one counting
// pass per attribute. Loading aborts when ctx is cancelled, returning an
// error wrapping guard.ErrDeadline.
func FromStore(ctx context.Context, s *relation.Store, workers int) (*Miner, error) {
	if err := insertCtxErr(ctx); err != nil {
		return nil, err
	}
	view := s.View()
	db := partition.NewDatabase(view)
	res, err := agree.NewPlan(db).Run(ctx, agree.VariantCouples, agree.Options{Workers: workers}, nil)
	if err != nil {
		if cerr := insertCtxErr(ctx); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("incremental: seeding ag(r): %w", err)
	}
	m := &Miner{store: s, buckets: bucketIndex(view), nonEmptyCouples: res.Couples}
	// The plan's couples are exactly those sharing a value, and its
	// family drops ∅ (tracked by the couple count) and R, which the
	// miner keeps when two tuples are identical.
	for _, set := range res.Sets {
		if !set.IsEmpty() {
			m.agree.Insert(set)
		}
	}
	if hasDuplicate(db) {
		m.agree.Insert(attrset.Universe(db.Arity()))
	}
	return m, nil
}

// bucketIndex lists, per attribute and code, the tuples holding that code
// in ascending order: one counting pass per attribute, every list a
// capped sub-slice of one backing array, so an insert appending to a
// list reallocates that list alone.
func bucketIndex(r *relation.Relation) [][][]int32 {
	backing := make([]int32, r.Rows()*r.Arity())
	buckets := make([][][]int32, r.Arity())
	for a := range buckets {
		col, dom, _ := r.Column(a)
		offs := make([]int, dom+1)
		for _, code := range col {
			offs[code+1]++
		}
		for c := range dom {
			offs[c+1] += offs[c]
		}
		lists := backing[a*r.Rows() : (a+1)*r.Rows()]
		buckets[a] = make([][]int32, dom)
		for c := range dom {
			buckets[a][c] = lists[offs[c]:offs[c]:offs[c+1]]
		}
		for t, code := range col {
			buckets[a][code] = append(buckets[a][code], int32(t))
		}
	}
	return buckets
}

// hasDuplicate reports whether two tuples agree on every attribute: the
// product of all stripped partitions is then non-empty.
func hasDuplicate(db *partition.Database) bool {
	if db.Arity() == 0 {
		return false
	}
	pr := partition.NewProber(db.NumRows)
	p := db.Attr[0]
	for _, q := range db.Attr[1:] {
		if p.IsUnique() {
			return false
		}
		p = pr.Product(p, q)
	}
	return !p.IsUnique()
}

// Rows returns the number of inserted tuples.
func (m *Miner) Rows() int { return m.store.Rows() }

// Arity returns |R|.
func (m *Miner) Arity() int { return m.store.Arity() }

// Names returns the schema's attribute names.
func (m *Miner) Names() []string { return m.store.Names() }

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
// one errors.Is test. An aborted insert leaves the miner unchanged —
// a new value only takes a provisional code during the scan, and agree
// sets, dictionary codes and buckets are committed only after the scan
// completes — so the session stays consistent and the insert can be
// retried.
func (m *Miner) InsertCtx(ctx context.Context, row []string) error {
	if len(row) != m.Arity() {
		return fmt.Errorf("incremental: row arity %d, schema %d", len(row), m.Arity())
	}
	if err := insertCtxErr(ctx); err != nil {
		return err
	}
	t := m.store.Rows()
	// Encode and collect candidate partners: tuples sharing ≥ 1 value. A
	// new value's provisional code has no bucket and matches no tuple.
	codes := make([]int, len(row))
	m.stampID++
	if len(m.stamp) < t {
		grown := make([]int, t*2+8)
		copy(grown, m.stamp)
		m.stamp = grown
	}
	var candidates []int32
	for a, v := range row {
		code := m.store.Lookup(a, v)
		codes[a] = code
		if code == len(m.buckets[a]) {
			continue
		}
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
		for a, code := range codes {
			if m.store.Code(int(u), a) == code {
				s.Add(a)
			}
		}
		staged = append(staged, s)
	}
	// Last abort point before the commit below becomes visible.
	if err := faultinject.Fire(faultinject.IncrementalInsert); err != nil {
		return err
	}
	// Commit: agree sets first, then the tuple itself — its codes, new
	// dictionary values included, and its bucket entries.
	for _, s := range staged {
		m.agree.Insert(s)
	}
	m.nonEmptyCouples += len(staged)
	if err := m.store.Append(row); err != nil {
		return err // unreachable: the arity was checked above
	}
	for a, code := range codes {
		if code == len(m.buckets[a]) {
			m.buckets[a] = append(m.buckets[a], nil)
		}
		m.buckets[a][code] = append(m.buckets[a][code], int32(t))
	}
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
	sets := m.agree.Sets()
	out := make(attrset.Family, len(sets), len(sets)+1)
	copy(out, sets)
	if m.emptyCouplePresent() {
		out = append(out, attrset.Empty())
	}
	out.Sort()
	return out
}

func (m *Miner) emptyCouplePresent() bool {
	n := m.store.Rows()
	return m.nonEmptyCouples < n*(n-1)/2
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
	in := core.Input{Agree: &agree.Result{Sets: m.AgreeSets()}, Arity: m.Arity()}
	return core.Run(ctx, in, core.Options{Workers: 1})
}

// Snapshot returns the current tuples as a Relation (e.g. to build a
// real-world Armstrong relation with values from the data). It is an
// O(|R|) immutable view that shares memory with the miner: later inserts
// never change it, and it is never copied. The error is always nil.
func (m *Miner) Snapshot() (*relation.Relation, error) {
	return m.store.View(), nil
}
