package partition

import (
	"bytes"
	"context"
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
// task runs on the calling goroutine, and at two some run elsewhere.
func TestCoupleSpaceOneWorkerStartsNoGoroutines(t *testing.T) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 6, Rows: 5000, Correlation: 0.5, Seed: 3})
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

// TestAgreeSetsMatchOracle: for every tuple u, AgreeSets(u) yields one
// set per partner Walk(u) meets, and the set a partner's stamp indexes
// is relation.AgreeSet of u and that partner. Tuples are visited in
// order and then in a random order, on one reused Walker per width, so
// a walk's stamps can never leak into the next; and a tuple's cost
// bounds its couples and is zero exactly when it has none. Relations
// are the fixed shapes above plus mcRelation's random ones.
func TestAgreeSetsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rels := agreeOracleRelations(t)
	for range 200 {
		rels = append(rels, mcRelation(t, rng))
	}
	var narrow Walker[attrset.Narrow]
	var wide Walker[attrset.Set]
	for i, r := range rels {
		cs, err := NewCoupleSpace(context.Background(), NewDatabase(r), 1+i%3)
		if err != nil {
			t.Fatal(err)
		}
		order := append(rng.Perm(r.Rows()), rng.Perm(r.Rows())...)
		slices.Sort(order[:r.Rows()])
		for _, u := range order {
			checkAgreeSets(t, r, cs, u, &narrow)
			checkAgreeSets(t, r, cs, u, &wide)
		}
	}
}

// checkAgreeSets checks AgreeSets(u) on w against Walk(u) and the
// relation, mapping set k to the tuple the walk stamped from+k.
func checkAgreeSets[S attrset.Width](t *testing.T, r *relation.Relation, cs *CoupleSpace, u int, w *Walker[S]) {
	t.Helper()
	sets := slices.Clone(w.AgreeSets(cs, u))
	from := w.top + 1 - int32(len(sets))
	owner := make([]int32, len(sets))
	met := 0
	for t0 := range u {
		if k := w.stamp[t0] - from; k >= 0 && int(k) < len(sets) {
			owner[k] = int32(t0)
			met++
		}
	}
	partners := slices.Clone(w.Walk(cs, u))
	if len(sets) != len(partners) || met != len(sets) {
		t.Fatalf("tuple %d has %d sets, %d stamped partners, %d walked partners", u, len(sets), met, len(partners))
	}
	if cost := cs.Cost()[u+1] - cs.Cost()[u]; cost < int64(len(sets)) || (cost == 0) != (len(sets) == 0) {
		t.Fatalf("tuple %d costs %d for %d couples", u, cost, len(sets))
	}
	slices.Sort(partners)
	if stamped := slices.Sorted(slices.Values(owner)); !slices.Equal(stamped, partners) {
		t.Fatalf("tuple %d: sets belong to %v, Walk meets %v", u, stamped, partners)
	}
	for k, t0 := range owner {
		if want := r.AgreeSet(u, int(t0)); attrset.Widen(sets[k]) != want {
			t.Fatalf("couple (%d, %d): got %v, want %v", t0, u, attrset.Widen(sets[k]), want)
		}
	}
}
