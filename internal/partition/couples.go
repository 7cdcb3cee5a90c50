package partition

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/pool"
)

// CoupleSpace is the couple space of MC (paper §3.1, Lemma 1) as a
// function rather than a list: only couples inside some class of
// MC = Max⊆{c ∈ π̂_A | π̂_A ∈ r̂} can have a non-empty agree set, and
// couple k is computed on demand, by a binary search over Ends plus the
// walk of one tuple's classes, from a table of O(|r| + ‖r̂‖) entries.
//
// The couples are ordered u-major. Tuple u's partners are the tuples
// t < u sharing a kept class with u, each once, in the order a walk
// over u's kept classes meets them: attribute by attribute, each class
// run up to u (classes are ascending). Couple k belongs to the u with
// Ends()[u] ≤ k < Ends()[u+1], and is u's (k − Ends()[u])-th partner.
// Two spaces built from identical databases by the same numbering
// (CoupleNumbering) number their couples identically, whatever the
// worker counts; nothing else does.
//
// A CoupleSpace is read-only once built: concurrent Partners calls are
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
	// overwritten with -1 in all its tuples' lists.
	off, starts []int32
	// ends[u] is the number of couples whose tuple u' < u: a prefix sum
	// of the tuples' partner counts, |r|+1 entries.
	ends []int
}

// CoupleNumbering names the order CoupleSpace numbers couples in. Nodes
// that exchange couple index ranges exchange it too, so a range is only
// ever read under the numbering it was cut in. Any change to that order
// — the walk, the table's class order, which classes the MC test keeps
// — must change this name; TestCoupleNumberingPinned fails until it
// does.
const CoupleNumbering = "mc-u-major/1"

// countBlock is the tuple count of one counting task: small enough to
// balance tuples whose walks differ by orders of magnitude, large
// enough to amortise dispatch.
const countBlock = 1 << 10

// NewCoupleSpace builds db's couple space over up to workers goroutines
// (0 meaning GOMAXPROCS; at 1 everything runs on the calling
// goroutine), in three passes:
//
//  1. the class-start table: every attribute's classes entered into
//     their tuples' lists, attributes split into contiguous groups
//     filled in parallel;
//  2. the MC test, gated: a class of k tuples is tested for domination
//     only when k(k−1)/2 > |R|, in parallel per attribute over the
//     un-pruned table, and the dominated classes are unmarked after all
//     tests finished;
//  3. a count of every tuple's distinct partners, in parallel over
//     blocks of tuples, each worker with its own Walker, summed into
//     Ends.
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
	cs := &CoupleSpace{db: db, base: make([]int32, len(db.Attr)+1), ends: make([]int, db.NumRows+1)}
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
	if err := cs.count(ctx, workers); err != nil {
		return nil, err
	}
	return cs, nil
}

// index fills off and starts, the class-start table. Attributes are cut
// into one contiguous group per worker; each group first counts its
// classes per tuple, a serial pass turns the counts into every group's
// cursor within each tuple's list, and each group then enters its
// classes at its own cursors. Groups follow attribute order, so every
// list comes out ascending.
func (cs *CoupleSpace) index(ctx context.Context, workers int) error {
	n, rows := len(cs.db.Attr), cs.db.NumRows
	groups := max(1, min(workers, n))
	attrs := func(g int) []*Partition { return cs.db.Attr[g*n/groups : (g+1)*n/groups] }
	cursor := make([][]int32, groups) // classes of group g per tuple, then g's cursor
	err := pool.Run(ctx, groups, groups, func(_ context.Context, _, g int) error {
		c := make([]int32, rows)
		for _, p := range attrs(g) {
			for ci, nc := 0, p.NumClasses(); ci < nc; ci++ {
				for _, t := range p.Class(ci)[1:] {
					c[t]++
				}
			}
		}
		cursor[g] = c
		return nil
	})
	if err != nil {
		return err
	}
	cs.off = make([]int32, rows+1)
	for t := range rows {
		o := cs.off[t]
		for _, c := range cursor {
			c[t], o = o, o+c[t]
		}
		cs.off[t+1] = o
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
				list[slices.Index(list, start)] = -1
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

// count fills ends: every tuple's partner count, walked in parallel over
// blocks of tuples, then summed.
func (cs *CoupleSpace) count(ctx context.Context, workers int) error {
	rows := cs.db.NumRows
	walkers := make([]Walker, workers) // a stamp is allocated on first use
	err := pool.Run(ctx, workers, (rows+countBlock-1)/countBlock, func(_ context.Context, w, b int) error {
		for u := b * countBlock; u < min((b+1)*countBlock, rows); u++ {
			cs.ends[u+1] = cs.walk(u, &walkers[w], 0, nil)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for u := range rows {
		cs.ends[u+1] += cs.ends[u]
	}
	return nil
}

// Couples returns the size of the couple space.
func (cs *CoupleSpace) Couples() int { return cs.ends[len(cs.ends)-1] }

// Ends returns the |r|+1 couple offsets: tuple u's couples are
// [Ends()[u], Ends()[u+1]). The caller must not modify it.
func (cs *CoupleSpace) Ends() []int { return cs.ends }

// Walker is the scratch a goroutine regenerates couples with: a stamp
// per tuple, holding the epoch of the walk that last met it as a
// partner. Each walk takes a fresh epoch, so one tuple's couples split
// over consecutive ranges regenerate whole on the same Walker. The zero
// value is ready to use.
type Walker struct {
	stamp []int32
	epoch int32
}

// next starts a walk over a space of rows tuples and returns its epoch.
func (w *Walker) next(rows int) int32 {
	if len(w.stamp) < rows {
		w.stamp, w.epoch = make([]int32, rows), 0
	}
	if w.epoch == math.MaxInt32 {
		clear(w.stamp)
		w.epoch = 0
	}
	w.epoch++
	return w.epoch
}

// Partners regenerates the couples [lo, hi) of the space: out[k−lo] is
// the partner t of couple k. It returns out, reused when its capacity
// holds hi−lo partners and otherwise replaced by an exact-size slice,
// and u, the tuple of couple lo: couple k's tuple is the u' ≥ u with
// Ends()[u'] ≤ k < Ends()[u'+1].
func (cs *CoupleSpace) Partners(lo, hi int, w *Walker, out []int32) (partners []int32, u int) {
	if cap(out) < hi-lo {
		out = make([]int32, hi-lo)
	}
	out = out[:hi-lo]
	u, _ = slices.BinarySearch(cs.ends, lo+1)
	u-- // the last tuple whose couples begin at or before lo
	for v, k := u, lo; k < hi; v++ {
		if end := min(cs.ends[v+1], hi); end > k {
			cs.walk(v, w, k-cs.ends[v], out[k-lo:end-lo])
			k = end
		}
	}
	return out, u
}

// walk meets u's distinct partners in couple order, storing those with
// index skip, skip+1, … into out until out is full, and returns how many
// it met: all of them when out is empty.
func (cs *CoupleSpace) walk(u int, w *Walker, skip int, out []int32) int {
	epoch := w.next(cs.db.NumRows)
	stamp, base, attrs := w.stamp, cs.base, cs.db.Attr
	stop := skip + len(out) // never reached when out is empty
	n, a := 0, 0
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
			if stamp[t] == epoch {
				continue
			}
			stamp[t] = epoch
			if n >= skip && n < stop {
				out[n-skip] = int32(t)
			}
			if n++; n == stop {
				return n
			}
		}
	}
	return n
}
