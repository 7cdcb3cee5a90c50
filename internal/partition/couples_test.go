package partition

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/attrset"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/relation"
)

// goroutineID parses the calling goroutine's id from its stack header.
func goroutineID() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestCoupleSpaceOneWorkerStartsNoGoroutines: at one worker every build
// task runs on the calling goroutine, and at two some run elsewhere. The
// relation has enough rows for several counting tasks.
func TestCoupleSpaceOneWorkerStartsNoGoroutines(t *testing.T) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 6, Rows: 5 * countBlock, Correlation: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(r)
	defer faultinject.Reset()
	for _, workers := range []int{1, 2} {
		caller := goroutineID()
		var tasks, elsewhere atomic.Int64
		faultinject.Set(faultinject.PoolTask, func() error {
			tasks.Add(1)
			if goroutineID() != caller {
				elsewhere.Add(1)
			}
			return nil
		})
		if _, err := NewCoupleSpace(context.Background(), db, workers); err != nil {
			t.Fatal(err)
		}
		if tasks.Load() == 0 || (elsewhere.Load() == 0) != (workers == 1) {
			t.Fatalf("workers=%d: %d of %d build tasks ran off the calling goroutine", workers, elsewhere.Load(), tasks.Load())
		}
	}
}

// TestCoupleNumberingPinned pins the couple numbering CoupleNumbering
// names: the paper example's partners literally, and a digest of Ends
// and the partners of a 6×300 relation whose last column nests in the
// one before (so the MC test prunes). Nodes exchanging couple ranges
// trust the name, so when this test fails the numbering changed: change
// CoupleNumbering, then the pins.
func TestCoupleNumberingPinned(t *testing.T) {
	if CoupleNumbering != "mc-u-major/1" {
		t.Fatalf("CoupleNumbering is %q: re-pin this test", CoupleNumbering)
	}
	space := func(r *relation.Relation) ([]int, []int32) {
		cs, err := NewCoupleSpace(context.Background(), NewDatabase(r), 2)
		if err != nil {
			t.Fatal(err)
		}
		var w Walker
		partners, _ := cs.Partners(0, cs.Couples(), &w, nil)
		return cs.Ends(), partners
	}
	ends, partners := space(relation.PaperExample())
	if !slices.Equal(ends, []int{0, 0, 1, 1, 2, 4, 5, 6}) || !slices.Equal(partners, []int32{0, 2, 3, 2, 0, 1}) {
		t.Errorf("paper example: ends %v, partners %v", ends, partners)
	}
	rng := rand.New(rand.NewSource(1))
	cols := make([][]int, 6)
	for a := range cols {
		cols[a] = make([]int, 300)
		for i := range cols[a] {
			cols[a][i] = rng.Intn(2 + 3*a)
		}
	}
	for i := range cols[5] {
		cols[5][i] = cols[4][i] / 2
	}
	r, err := relation.FromCodes(make([]string, len(cols)), cols)
	if err != nil {
		t.Fatal(err)
	}
	ends, partners = space(r)
	h := fnv.New64a()
	for _, e := range ends {
		binary.Write(h, binary.LittleEndian, int64(e))
	}
	binary.Write(h, binary.LittleEndian, partners)
	if n, sum := len(partners), h.Sum64(); n != 32643 || sum != 0xed3c891991fc7e6b {
		t.Errorf("6×300 relation: %d couples, digest %#x", n, sum)
	}
}

// agreeOracleRelations are the fixed shapes of TestAgreeSetsMatchOracle:
// two attributes with equal classes of 4 (the second one's are
// dominated, on the tie-break), a class of 4 nested inside one of 8 on another
// attribute (dominated, and big enough to be tested), and duplicate rows
// beside a constant column.
func agreeOracleRelations(t *testing.T) []*relation.Relation {
	t.Helper()
	equal := [][]int{make([]int, 14), make([]int, 14), make([]int, 14)}
	for i := range 14 {
		equal[0][i], equal[1][i], equal[2][i] = i/4, 9-i/4, i%2
	}
	nested := [][]int{make([]int, 24), make([]int, 24)}
	for i := range 24 {
		nested[0][i], nested[1][i] = i/8, i/4
	}
	dups := [][]int{{0, 1, 0, 1, 2, 0, 2}, {7, 7, 7, 7, 7, 7, 7}, {3, 4, 3, 4, 5, 3, 6}}
	var out []*relation.Relation
	for _, cols := range [][][]int{equal, nested, dups} {
		r, err := relation.FromCodes(make([]string, len(cols)), cols)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// TestAgreeSetsMatchOracle: for every couple k of a range [lo, hi), the
// set AgreeSets yields at position k−lo is relation.AgreeSet of k's two
// tuples. Ranges cover the whole space, single tuples, and random bounds
// that start and end mid-tuple, on one reused Walker; relations are the
// fixed shapes above plus mcRelation's random ones.
func TestAgreeSetsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rels := agreeOracleRelations(t)
	for range 200 {
		rels = append(rels, mcRelation(t, rng))
	}
	for i, r := range rels {
		cs, err := NewCoupleSpace(context.Background(), NewDatabase(r), 1+i%3)
		if err != nil {
			t.Fatal(err)
		}
		n, ends := cs.Couples(), cs.Ends()
		ranges := [][2]int{{0, n}}
		for u := range r.Rows() {
			if ends[u] < ends[u+1] {
				ranges = append(ranges, [2]int{ends[u], ends[u+1]})
			}
		}
		for range 5 {
			lo := rng.Intn(n + 1)
			ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
		}
		var w Walker
		for _, rg := range ranges {
			lo, hi := rg[0], rg[1]
			var got []attrset.Set
			err := cs.AgreeSets(lo, hi, &w, func(sets []attrset.Set) error {
				got = append(got, sets...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != hi-lo {
				t.Fatalf("relation %d: range [%d,%d) yields %d sets", i, lo, hi, len(got))
			}
			partners, u := cs.Partners(lo, hi, &Walker{}, nil)
			for k := lo; k < hi; k++ {
				for k >= ends[u+1] {
					u++
				}
				if want := r.AgreeSet(u, int(partners[k-lo])); got[k-lo] != want {
					t.Fatalf("relation %d: couple %d (%d, %d) of range [%d,%d): got %v, want %v", i, k, partners[k-lo], u, lo, hi, got[k-lo], want)
				}
			}
		}
	}
}
