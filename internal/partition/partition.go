// Package partition implements partitions and stripped partitions of a
// relation under attribute sets, the reduced representation both Dep-Miner
// and TANE operate on (paper §3.1, after Cosmadakis et al. and Huhtala et
// al.).
//
// Two tuples are equivalent w.r.t. an attribute set X when they agree on
// every attribute of X; π_X is the set of the resulting equivalence
// classes. A *stripped* partition π̂_X drops the singleton classes — a
// tuple alone in its class agrees with no other tuple, so it can never
// contribute to an agree set or violate an FD.
//
// Partitions are stored flat: one shared row store holding the tuple ids
// of every class back to back, plus per-class offsets. A discovery run
// touches millions of equivalence classes (every partition product makes
// new ones), so the layout matters: the flat store costs two allocations
// per partition instead of one per class, and iterating classes walks one
// contiguous array (see DESIGN.md §9).
package partition

import (
	"context"
	"slices"
	"sync"

	"repro/internal/pool"
	"repro/internal/relation"
)

// Partition is a stripped partition: the equivalence classes of size > 1 of
// some attribute set over a relation of NumRows tuples. Classes hold tuple
// indices in increasing order; classes are ordered by their smallest tuple
// index, so a Partition has one canonical representation.
//
// The classes live in a flat layout — one shared row store plus class
// offsets — accessed through NumClasses and Class.
type Partition struct {
	// rows is the shared row store: tuple ids of all classes back to back,
	// each class contiguous and ascending, classes ordered by first tuple.
	rows []int
	// offs are the class boundaries: class i is rows[offs[i]:offs[i+1]].
	// Empty when the partition has no stripped classes.
	offs []int32
	// NumRows is |r|, needed to recover singleton counts and error
	// measures without the relation.
	NumRows int
}

// SingleFromCodes computes the stripped partition π̂_A from a bare
// dictionary-coded column: codes per tuple, dense in [0, dom) and in
// first-occurrence order (the ColumnSource contract), so that code order
// is exactly "classes sorted by smallest tuple index" and no
// normalisation is needed. NewDatabaseFromSource builds every partition
// through it. Cost: two passes over the column (count, fill) and one
// over the domain, with three allocations regardless of the number of
// classes: the per-code counts, which become the fill cursors, and the
// partition's row store and offsets.
func SingleFromCodes(numRows int, col []int, dom int) *Partition {
	p := &Partition{NumRows: numRows}
	if dom == 0 {
		return p
	}
	counts := make([]int32, dom)
	for _, c := range col {
		counts[c]++
	}
	nc, size := 0, 0
	for _, n := range counts {
		if n > 1 {
			nc++
			size += int(n)
		}
	}
	if nc == 0 {
		return p
	}
	// Turn each count into its class's fill cursor: the class's start in
	// the row store, or -1 for a code held by one tuple.
	p.rows = make([]int, size)
	p.offs = make([]int32, 1, nc+1)
	end := int32(0)
	for c, n := range counts {
		if n > 1 {
			counts[c] = end
			end += n
			p.offs = append(p.offs, end)
		} else {
			counts[c] = -1
		}
	}
	// Fill: scanning tuples in order keeps each class ascending.
	for t, c := range col {
		if at := counts[c]; at >= 0 {
			p.rows[at] = t
			counts[c] = at + 1
		}
	}
	return p
}

// FromClasses builds a stripped partition from explicit classes. Singleton
// and empty classes are dropped; classes are normalised to canonical order.
// It is primarily for tests and synthetic inputs.
func FromClasses(numRows int, classes [][]int) *Partition {
	kept := make([][]int, 0, len(classes))
	for _, c := range classes {
		if len(c) > 1 {
			cc := slices.Clone(c)
			slices.Sort(cc)
			kept = append(kept, cc)
		}
	}
	slices.SortFunc(kept, func(a, b []int) int { return a[0] - b[0] })
	p := &Partition{NumRows: numRows}
	for _, c := range kept {
		p.appendClass(c)
	}
	return p
}

// appendClass adds a class (already sorted, size > 1) to the flat store.
// Callers must append classes in canonical order (by first tuple index).
func (p *Partition) appendClass(c []int) {
	if len(p.offs) == 0 {
		p.offs = append(p.offs, 0)
	}
	p.rows = append(p.rows, c...)
	p.offs = append(p.offs, int32(len(p.rows)))
}

// NumClasses returns the number of stripped (size > 1) classes.
func (p *Partition) NumClasses() int {
	if len(p.offs) == 0 {
		return 0
	}
	return len(p.offs) - 1
}

// Class returns the i-th class as a view into the shared row store: tuple
// ids in increasing order. The caller must not modify it.
func (p *Partition) Class(i int) []int {
	return p.rows[p.offs[i]:p.offs[i+1]]
}

// Size returns ||π̂||, the total number of tuples across stripped classes.
func (p *Partition) Size() int { return len(p.rows) }

// Bytes returns the heap footprint of the partition: the flat row store,
// the class offsets, and the struct header. This is the unit the
// memory-bounded partition store charges, so it must track the real cost
// of keeping a partition resident.
func (p *Partition) Bytes() int64 {
	const header = 56 // two slice headers + NumRows
	return int64(len(p.rows))*8 + int64(len(p.offs))*4 + header
}

// FullClassCount returns |π_X| of the unstripped partition: stripped
// classes plus the singletons that stripping removed.
func (p *Partition) FullClassCount() int {
	return p.NumClasses() + (p.NumRows - p.Size())
}

// Error returns e(X) = (||π̂_X|| - |π̂_X|) / |r|, TANE's g₃-style measure:
// the minimum fraction of tuples to remove for X to become a superkey. A
// partition of all singletons has error 0.
func (p *Partition) Error() float64 {
	if p.NumRows == 0 {
		return 0
	}
	return float64(p.Size()-p.NumClasses()) / float64(p.NumRows)
}

// IsUnique reports whether the attribute set is a superkey: every class is
// a singleton, i.e. the stripped partition is empty.
func (p *Partition) IsUnique() bool { return len(p.rows) == 0 }

// Couples returns the number of tuple couples (unordered pairs) inside the
// partition's classes: Σ_c |c|·(|c|-1)/2. This is the work the agree-set
// computation would do on this partition.
func (p *Partition) Couples() int {
	n := 0
	for i, nc := 0, p.NumClasses(); i < nc; i++ {
		l := len(p.Class(i))
		n += l * (l - 1) / 2
	}
	return n
}

// Product computes the stripped partition π̂_{X∪Y} = π̂_X · π̂_Y from the
// stripped partitions of X and Y, using the probe-table algorithm of TANE
// (Huhtala et al. 1998, procedure STRIPPED_PRODUCT). Cost: O(||π̂_X|| +
// ||π̂_Y||) with scratch tables reused across calls via Prober.
func Product(x, y *Partition) *Partition {
	pr := NewProber(x.NumRows)
	return pr.Product(x, y)
}

// Prober carries the scratch state for repeated partition products, so a
// levelwise sweep allocates the O(|r|) tables once and each product costs
// two allocations (the result's flat row store and offsets).
type Prober struct {
	class  []int32 // tuple → class id in x, or -1
	bucket [][]int // class id in x → tuples collected (backing reused)
	touch  []int32 // class ids touched in this product
	flat   []int   // staging row store for the unordered first pass
	starts,
	lens []int32 // class boundaries within flat
	perm []int32 // class permutation for canonical ordering
}

// NewProber returns scratch state for relations with numRows tuples.
func NewProber(numRows int) *Prober {
	return &Prober{class: make([]int32, numRows)}
}

// Product computes π̂_X · π̂_Y. Both partitions must have NumRows equal to
// the prober's capacity.
func (pr *Prober) Product(x, y *Partition) *Partition {
	if len(pr.class) < x.NumRows {
		pr.class = make([]int32, x.NumRows)
	}
	class := pr.class
	for i := range class {
		class[i] = -1
	}
	xnc := x.NumClasses()
	for id := 0; id < xnc; id++ {
		for _, t := range x.Class(id) {
			class[t] = int32(id)
		}
	}
	if cap(pr.bucket) < xnc {
		pr.bucket = append(pr.bucket[:cap(pr.bucket)], make([][]int, xnc-cap(pr.bucket))...)
	}
	bucket := pr.bucket[:xnc]
	out := &Partition{NumRows: x.NumRows}
	// First pass: the probe-table gather of STRIPPED_PRODUCT, staging
	// surviving classes into the reusable flat store instead of
	// allocating a slice per class. Scanning a y-class ascending keeps
	// each bucket — and hence each staged class — ascending.
	pr.flat = pr.flat[:0]
	pr.starts, pr.lens, pr.touch = pr.starts[:0], pr.lens[:0], pr.touch[:0]
	flat := pr.flat
	for yi, ync := 0, y.NumClasses(); yi < ync; yi++ {
		c := y.Class(yi)
		for _, t := range c {
			if id := class[t]; id >= 0 {
				if len(bucket[id]) == 0 {
					pr.touch = append(pr.touch, id)
				}
				bucket[id] = append(bucket[id], t)
			}
		}
		for _, id := range pr.touch {
			if len(bucket[id]) > 1 {
				pr.starts = append(pr.starts, int32(len(flat)))
				pr.lens = append(pr.lens, int32(len(bucket[id])))
				flat = append(flat, bucket[id]...)
			}
			bucket[id] = bucket[id][:0]
		}
		pr.touch = pr.touch[:0]
	}
	pr.flat = flat
	nc := len(pr.starts)
	if nc == 0 {
		return out
	}
	// Canonical order: classes sorted by smallest tuple index. The touch
	// order is "by first element" only *within* one y-class — classes
	// from a later y-class can still start lower — so a permutation sort
	// over the class starts is required.
	perm := pr.perm[:0]
	for i := 0; i < nc; i++ {
		perm = append(perm, int32(i))
	}
	starts, lens := pr.starts, pr.lens
	slices.SortFunc(perm, func(a, b int32) int {
		return flat[starts[a]] - flat[starts[b]]
	})
	pr.perm = perm
	size := 0
	for _, l := range lens {
		size += int(l)
	}
	rows := make([]int, 0, size)
	offs := make([]int32, 1, nc+1)
	for _, ci := range perm {
		rows = append(rows, flat[starts[ci]:starts[ci]+lens[ci]]...)
		offs = append(offs, int32(len(rows)))
	}
	out.rows = rows
	out.offs = offs
	return out
}

// Database is the stripped partition database r̂ = ⋃_{A∈R} π̂_A: one
// stripped partition per attribute (paper §3.1). It is the only
// representation of the relation the discovery algorithms consume.
type Database struct {
	// Attr[a] is π̂_a.
	Attr []*Partition
	// NumRows is |r|.
	NumRows int
}

// NewDatabase extracts the stripped partition database from a relation —
// the paper's pre-processing phase — over all cores.
func NewDatabase(r *relation.Relation) *Database {
	db, _ := NewDatabaseFromSource(context.Background(), r, 0) // a Relation's Column never fails
	return db
}

// ColumnSource supplies a relation's dictionary-coded columns one at a
// time: everything steps 1–4 of the pipeline read. Column returns
// attribute a's codes plus the domain size; it may read from disk, and
// the caller must not modify the returned slice. Codes are dense in
// [0, domain) and in first-occurrence order: the first tuple holding
// any code c > 0 comes after the first tuple holding c-1.
// SingleFromCodes relies on that order for canonical classes. A
// relation.Relation, the single-use relation.CSVSource and the durable
// snapshot reader all satisfy it; the snapshot reader refuses a column
// that breaks the order.
type ColumnSource interface {
	Names() []string
	Arity() int
	Rows() int
	Column(a int) ([]int, int, error)
}

// NewDatabaseFromSource extracts the stripped partition database from a
// column source over workers goroutines (0 meaning GOMAXPROCS). Columns
// are read in attribute order under one lock, so a single-use or
// sequential source works unchanged; each worker then builds the
// partition of the column it read and drops the column, so at most
// workers columns are resident at once, and only the stripped partitions
// (typically far smaller) are retained. This is how a multi-gigabyte
// snapshot feeds discovery without ever materialising the relation. The
// build stops at the first Column error, or when ctx ends.
func NewDatabaseFromSource(ctx context.Context, src ColumnSource, workers int) (*Database, error) {
	db := &Database{Attr: make([]*Partition, src.Arity()), NumRows: src.Rows()}
	var (
		mu   sync.Mutex
		next int // the next attribute to read
	)
	// A task reads whichever column is next, not the one its index names:
	// tasks may take the lock out of order.
	err := pool.Run(ctx, workers, len(db.Attr), func(context.Context, int, int) error {
		mu.Lock()
		a := next
		next++
		col, dom, err := src.Column(a)
		mu.Unlock()
		if err != nil {
			return err
		}
		db.Attr[a] = SingleFromCodes(db.NumRows, col, dom)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// Arity returns |R|.
func (db *Database) Arity() int { return len(db.Attr) }
