package partition

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/attrset"
	"repro/internal/pool"
)

// CoupleSpace is the couple space of MC (paper §3.1, Lemma 1) as a
// function rather than a list: only couples inside some class of
// MC = Max⊆{c ∈ π̂_A | π̂_A ∈ r̂} can have a non-empty agree set, and
// tuple u's couples are computed on demand, by one walk over u's
// classes, from a table of O(|r| + ‖r̂‖) entries.
//
// Tuple u's couples are (t, u) for the tuples t < u that share a kept
// class with u, each once. That set is the data's alone: every
// dominated class lies inside a kept one, so it does not depend on
// which classes the MC test keeps, and it does not depend on the order
// a walk meets them. A tuple range [lo, hi) therefore names the same
// couples on every node that holds the same relation.
//
// A CoupleSpace is read-only once built: concurrent walks over it are
// safe, each with its own Walker.
type CoupleSpace struct {
	db *Database
	// base[a] is the offset of π̂_a's row store in the concatenation of
	// all of them (|R|+1 entries), so base[a] + offs[ci] names class ci
	// of π̂_a across the database: its global start.
	base []int32
	// starts[off[u]:off[u+1]] lists the global starts of the classes
	// containing u, ascending, that is by attribute — except the classes
	// u opens, where u has no earlier partner: a walk over them would
	// cost a cache miss and meet nothing. A class found dominated is
	// complemented (^start, negative) in all its tuples' lists: the
	// couple walk skips it, the agree-set walk still reads it.
	off, starts []int32
	// cost[u] is the walk cost of the tuples before u, |r|+1 prefix
	// sums: a tuple costs Σ over its classes of its position in the
	// class, the tuples a walk over all its classes steps over. It bounds
	// the tuple's couple count from above, and is positive exactly when
	// the tuple has a couple.
	cost []int64
}

// NewCoupleSpace builds db's couple space over up to workers goroutines
// (0 meaning GOMAXPROCS; at 1 everything runs on the calling
// goroutine), in two passes:
//
//  1. the class-start table and the tuples' costs: every attribute's
//     classes entered into their tuples' lists, attributes split into
//     contiguous groups filled in parallel;
//  2. the MC test, gated: a class of k tuples is tested for domination
//     only when k(k−1)/2 > |R|, in parallel per attribute over the
//     un-pruned table, and the dominated classes are unmarked after all
//     tests finished.
//
// The gate can never add cost. An untested dominated class wastes at
// most k(k−1)/2 ≤ |R| walk steps, on couples a per-walk stamp drops as
// repeats (a dominated class lies inside a kept one), while its test
// reads the lists of its tuples, up to |R| entries each. Untested
// classes therefore leave the couple set exact.
//
// It fails only when ctx ends, a pool task fails (the PoolTask fault
// point, or a contained panic), or ‖r̂‖ exceeds the int32 table.
func NewCoupleSpace(ctx context.Context, db *Database, workers int) (*CoupleSpace, error) {
	cs := &CoupleSpace{db: db, base: make([]int32, len(db.Attr)+1)}
	total := 0
	for a, p := range db.Attr {
		total += len(p.rows)
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("partition: %d stripped class entries exceed the couple table's %d", total, math.MaxInt32)
		}
		cs.base[a+1] = int32(total)
	}
	workers = pool.Resolve(workers)
	if err := cs.index(ctx, workers); err != nil {
		return nil, err
	}
	if err := cs.prune(ctx, workers); err != nil {
		return nil, err
	}
	return cs, nil
}

// index fills off, starts and cost. Attributes are cut into one
// contiguous group per worker; each group first counts its classes and
// adds up its positions per tuple, a serial pass turns the counts into
// every group's cursor within each tuple's list and the positions into
// cost, and each group then enters its classes at its own cursors.
// Groups follow attribute order, so every list comes out ascending.
func (cs *CoupleSpace) index(ctx context.Context, workers int) error {
	n, rows := len(cs.db.Attr), cs.db.NumRows
	groups := max(1, min(workers, n))
	attrs := func(g int) []*Partition { return cs.db.Attr[g*n/groups : (g+1)*n/groups] }
	cursor := make([][]int32, groups) // classes of group g per tuple, then g's cursor
	// steps[g][t] sums t's positions in group g's classes. A position
	// is below its class's size, so a tuple's sum over all attributes
	// stays below ‖r̂‖, which fits an int32.
	steps := make([][]int32, groups)
	err := pool.Run(ctx, groups, groups, func(_ context.Context, _, g int) error {
		c, s := make([]int32, rows), make([]int32, rows)
		for _, p := range attrs(g) {
			for ci, nc := 0, p.NumClasses(); ci < nc; ci++ {
				for i, t := range p.Class(ci)[1:] {
					c[t]++
					s[t] += int32(i + 1)
				}
			}
		}
		cursor[g], steps[g] = c, s
		return nil
	})
	if err != nil {
		return err
	}
	cs.off = make([]int32, rows+1)
	cs.cost = make([]int64, rows+1)
	for t := range rows {
		o, w := cs.off[t], cs.cost[t]
		for g, c := range cursor {
			c[t], o = o, o+c[t]
			w += int64(steps[g][t])
		}
		cs.off[t+1], cs.cost[t+1] = o, w
	}
	cs.starts = make([]int32, cs.off[rows])
	return pool.Run(ctx, groups, groups, func(_ context.Context, _, g int) error {
		c, first := cursor[g], g*n/groups
		for i, p := range attrs(g) {
			for ci, nc := 0, p.NumClasses(); ci < nc; ci++ {
				start := cs.base[first+i] + p.offs[ci]
				for _, t := range p.Class(ci)[1:] {
					cs.starts[c[t]] = start
					c[t]++
				}
			}
		}
		return nil
	})
}

// prune is the MC test (paper §3.1), gated as NewCoupleSpace describes.
// The tests read the un-pruned table, so they run in parallel; the
// dominated classes are unmarked once all of them finished. That order
// is safe because every dominated class lies inside a class that stays:
// follow domination to a class nothing dominates, which is kept.
func (cs *CoupleSpace) prune(ctx context.Context, workers int) error {
	n := len(cs.db.Attr)
	dominated := make([][]int32, n) // per attribute, its dominated class ids
	scratch := make([][]int32, workers)
	err := pool.Run(ctx, workers, n, func(_ context.Context, w, a int) error {
		p := cs.db.Attr[a]
		for ci, nc := 0, p.NumClasses(); ci < nc; ci++ {
			if k := int(p.offs[ci+1] - p.offs[ci]); k*(k-1)/2 <= n {
				continue
			}
			var dom bool
			scratch[w], dom = cs.dominated(a, ci, scratch[w][:0])
			if dom {
				dominated[a] = append(dominated[a], int32(ci))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for a, ids := range dominated {
		p := cs.db.Attr[a]
		for _, ci := range ids {
			start := cs.base[a] + p.offs[ci]
			for _, t := range p.Class(int(ci))[1:] {
				list := cs.list(t)
				list[slices.Index(list, start)] = ^start
			}
		}
	}
	return nil
}

// dominated reports whether class ci of π̂_a lies inside one class c'
// of another attribute b with |c'| > |c|, or with |c'| = |c| and b < a:
// equal classes are kept once, for the lowest attribute. (Classes of one
// partition are disjoint, so c ⊂ c' forces this shape.) The candidates
// are the classes in the list of c's second tuple, narrowed by
// intersecting with every later tuple's list, then kept only when they
// hold c's first tuple too: listed for it, or opened by it. A c' ⊇ c
// survives, since c's first tuple precedes the others in c', so none of
// them opens c'. cands is scratch, returned for reuse.
func (cs *CoupleSpace) dominated(a, ci int, cands []int32) ([]int32, bool) {
	p := cs.db.Attr[a]
	c, start := p.Class(ci), cs.base[a]+p.offs[ci]
	for _, g := range cs.list(c[1]) {
		if g != start {
			cands = append(cands, g)
		}
	}
	for _, t := range c[2:] {
		if len(cands) == 0 {
			return cands, false
		}
		cands = intersect(cands, cs.list(t))
	}
	for _, g := range cands {
		b, _ := slices.BinarySearch(cs.base, g+1)
		b-- // the last attribute whose rows begin at or before g
		q := cs.db.Attr[b]
		if q.rows[g-cs.base[b]] != c[0] && !slices.Contains(cs.list(c[0]), g) {
			continue
		}
		offs := q.offs
		id, _ := slices.BinarySearch(offs, g-cs.base[b])
		if size := int(offs[id+1] - offs[id]); size > len(c) || (size == len(c) && b < a) {
			return cands, true
		}
	}
	return cands, false
}

// intersect keeps the entries of the ascending list xs that occur in the
// ascending list ys, in place.
func intersect(xs, ys []int32) []int32 {
	kept, j := 0, 0
	for _, x := range xs {
		for j < len(ys) && ys[j] < x {
			j++
		}
		if j < len(ys) && ys[j] == x {
			xs[kept] = x
			kept++
		}
	}
	return xs[:kept]
}

// list returns tuple t's class starts.
func (cs *CoupleSpace) list(t int) []int32 { return cs.starts[cs.off[t]:cs.off[t+1]] }

// Cost returns the |r|+1 prefix sums of the tuples' walk costs:
// tuples [lo, hi) cost Cost()[hi] − Cost()[lo], which is zero exactly
// when they have no couple. The caller must not modify it.
func (cs *CoupleSpace) Cost() []int64 { return cs.cost }

// Walker is the scratch a goroutine walks tuples with: a stamp per
// tuple, and the partners and agree sets of one tuple's couples, grown
// on demand, the sets at width S (attrset.Narrow when the schema fits
// in one word). A walk stamps its i-th partner from+i, from lying above
// every earlier walk's stamps, so a stamp says both that the tuple was
// met and at which index. The zero value is ready to use.
type Walker[S attrset.Width] struct {
	stamp    []int32
	top      int32 // the highest stamp issued
	partners []int32
	sets     []S
}

// next starts a walk over a space of rows tuples and returns its first
// stamp.
func (w *Walker[S]) next(rows int) int32 {
	if len(w.stamp) < rows {
		w.stamp, w.top = make([]int32, rows), 0
	}
	if int(w.top) > math.MaxInt32-rows { // a walk meets under rows partners
		clear(w.stamp)
		w.top = 0
	}
	return w.top + 1
}

// Walk returns tuple u's couples in cs as its partners t < u, each
// once, in w's scratch: valid until w's next walk. It walks u's kept
// classes, attribute by attribute, each class run up to u (classes are
// ascending).
func (w *Walker[S]) Walk(cs *CoupleSpace, u int) []int32 {
	from := w.next(cs.db.NumRows)
	stamp, base, attrs := w.stamp, cs.base, cs.db.Attr
	partners := w.partners[:0]
	a := 0
	for _, g := range cs.list(u) {
		if g < 0 {
			continue
		}
		for g >= base[a+1] {
			a++
		}
		for _, t := range attrs[a].rows[g-base[a]:] {
			if t == u {
				break
			}
			if stamp[t] >= from {
				continue
			}
			stamp[t] = from + int32(len(partners))
			partners = append(partners, int32(t))
		}
	}
	w.partners = partners
	w.top = from + int32(len(partners)) - 1
	return partners
}

// AgreeSets runs lines 10–21 of Algorithm 2 for tuple u's couples in cs
// and returns their agree sets in w's scratch, valid until w's next
// walk. One walk goes over all of u's classes, dominated ones too: a
// partner t < u is stamped with the index of its set the first time
// the walk meets it, and every class of π̂_A it shares with u adds A to
// that set. A dominated class lies inside a kept one, so it meets no
// partner a walk over the kept classes alone would miss, but A may come
// from it alone. A tuple thus costs one walk plus Σ |ag(u, t)| over its
// couples. The sets come in the order the walk first meets their
// partners, which is not Walk's order; the partner of set i is the
// tuple stamped from+i.
func (w *Walker[S]) AgreeSets(cs *CoupleSpace, u int) []S {
	from := w.next(cs.db.NumRows)
	stamp, base, attrs := w.stamp, cs.base, cs.db.Attr
	sets := w.sets[:0]
	var empty S
	a := 0
	for _, g := range cs.list(u) {
		if g < 0 {
			g = ^g
		}
		for g >= base[a+1] {
			a++
		}
		for _, t := range attrs[a].rows[g-base[a]:] {
			if t == u {
				break
			}
			k := stamp[t] - from
			if k < 0 {
				k = int32(len(sets))
				stamp[t] = from + k
				sets = append(sets, empty)
			}
			attrset.Add(&sets[k], a)
		}
	}
	w.sets = sets
	w.top = from + int32(len(sets)) - 1
	return sets
}
