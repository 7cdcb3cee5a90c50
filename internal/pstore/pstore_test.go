package pstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/partition"
	"repro/internal/relation"
)

// single is the stripped partition π̂_a of r.
func single(r *relation.Relation, a int) *partition.Partition {
	col, dom, _ := r.Column(a) // a Relation's Column never fails
	return partition.SingleFromCodes(r.Rows(), col, dom)
}

// fixture builds a small relation with enough value collisions that every
// partition has stripped classes, plus its singles pre-installed as roots.
func fixture(t testing.TB, capBytes int64, budget *guard.Budget) (*relation.Relation, *Store) {
	t.Helper()
	rows := [][]string{
		{"a", "x", "1", "p"},
		{"a", "x", "2", "p"},
		{"a", "y", "1", "q"},
		{"b", "y", "2", "q"},
		{"b", "x", "1", "p"},
		{"b", "y", "2", "p"},
	}
	r, err := relation.FromRows([]string{"c0", "c1", "c2", "c3"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	s := New(capBytes, budget)
	for a := 0; a < r.Arity(); a++ {
		s.PutRoot(attrset.Single(a), single(r, a))
	}
	return r, s
}

// putProduct computes π̂_{left∪right} with a fresh prober and stores it.
func putProduct(t testing.TB, r *relation.Relation, s *Store, left, right attrset.Set) *partition.Partition {
	t.Helper()
	pr := partition.NewProber(r.Rows())
	lp, err := s.Get(left, pr)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := s.Get(right, pr)
	if err != nil {
		t.Fatal(err)
	}
	p := pr.Product(lp, rp)
	if err := s.Put(left.Union(right), left, right, left.Union(right).Len(), p); err != nil {
		t.Fatal(err)
	}
	return p
}

func sameParts(a, b *partition.Partition) bool {
	return fmt.Sprint(a.Classes()) == fmt.Sprint(b.Classes())
}

func TestHitReturnsResident(t *testing.T) {
	r, s := fixture(t, 0, nil)
	p := putProduct(t, r, s, attrset.Single(0), attrset.Single(1))
	got, err := s.Get(attrset.New(0, 1), partition.NewProber(r.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Error("unbounded store did not return the resident partition")
	}
	st := s.Stats()
	if st.Hits == 0 || st.Misses != 0 || st.Evictions != 0 || st.Recomputes != 0 {
		t.Errorf("stats = %+v, want pure hits", st)
	}
}

func TestUnknownSetIsAnError(t *testing.T) {
	r, s := fixture(t, 0, nil)
	if _, err := s.Get(attrset.New(0, 3), partition.NewProber(r.Rows())); err == nil {
		t.Error("Get of a never-recorded set succeeded")
	}
}

func TestEvictionAndRecompute(t *testing.T) {
	r, s := fixture(t, 1, nil) // cap of 1 byte: nothing non-root stays resident
	want := putProduct(t, r, s, attrset.Single(0), attrset.Single(1))
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want the over-cap partition evicted", st)
	}
	if st.ResidentBytes != 0 {
		t.Errorf("ResidentBytes = %d, want 0 under a 1-byte cap", st.ResidentBytes)
	}
	got, err := s.Get(attrset.New(0, 1), partition.NewProber(r.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameParts(got, want) {
		t.Errorf("recomputed partition differs:\n got %v\nwant %v", got.Classes(), want.Classes())
	}
	st = s.Stats()
	if st.Misses == 0 || st.Recomputes == 0 {
		t.Errorf("stats = %+v, want a miss and a recompute", st)
	}
}

// TestDeepRecompute evicts everything and asks for a 3-attribute set: the
// recompute must chain through the (also evicted) 2-attribute parent down
// to the pinned roots.
func TestDeepRecompute(t *testing.T) {
	r, s := fixture(t, 1, nil)
	putProduct(t, r, s, attrset.Single(0), attrset.Single(1))
	want := putProduct(t, r, s, attrset.New(0, 1), attrset.Single(2))
	got, err := s.Get(attrset.New(0, 1, 2), partition.NewProber(r.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameParts(got, want) {
		t.Errorf("deep recompute differs:\n got %v\nwant %v", got.Classes(), want.Classes())
	}
	if st := s.Stats(); st.Recomputes < 2 {
		t.Errorf("Recomputes = %d, want the parent rebuilt too", st.Recomputes)
	}
}

// TestPeakStaysUnderCap puts many partitions through a small cap and
// checks the settled resident footprint never exceeded it.
func TestPeakStaysUnderCap(t *testing.T) {
	const cap = 400
	r, s := fixture(t, cap, nil)
	for a := 1; a < r.Arity(); a++ {
		putProduct(t, r, s, attrset.Single(0), attrset.Single(a))
	}
	putProduct(t, r, s, attrset.New(0, 1), attrset.New(0, 2))
	st := s.Stats()
	if st.PeakBytes > cap {
		t.Errorf("PeakBytes = %d exceeds cap %d", st.PeakBytes, cap)
	}
	if st.PeakBytes == 0 {
		t.Error("PeakBytes = 0, nothing was ever resident")
	}
}

// TestEvictionPrefersOldestLevel: with level-2 and level-3 partitions
// resident, pushing over the cap must evict level 2 first.
func TestEvictionPrefersOldestLevel(t *testing.T) {
	r, s := fixture(t, 1<<20, nil)
	putProduct(t, r, s, attrset.Single(0), attrset.Single(1))
	putProduct(t, r, s, attrset.New(0, 1), attrset.Single(2))
	// Shrink the cap by rebuilding the store state: evict down to one
	// entry via a new tight-capped store exercising the same sequence.
	tight := New(s.Stats().ResidentBytes-1, nil)
	for a := 0; a < r.Arity(); a++ {
		tight.PutRoot(attrset.Single(a), single(r, a))
	}
	putProduct(t, r, tight, attrset.Single(0), attrset.Single(1))
	putProduct(t, r, tight, attrset.New(0, 1), attrset.Single(2))
	// The level-2 partition must be the evicted one: a Get of level 3
	// hits, a Get of level 2 misses.
	pr := partition.NewProber(r.Rows())
	before := tight.Stats()
	if _, err := tight.Get(attrset.New(0, 1, 2), pr); err != nil {
		t.Fatal(err)
	}
	if got := tight.Stats(); got.Hits != before.Hits+1 {
		t.Errorf("level-3 Get was not a hit: %+v -> %+v", before, got)
	}
	if _, err := tight.Get(attrset.New(0, 1), pr); err != nil {
		t.Fatal(err)
	}
	if got := tight.Stats(); got.Misses == 0 {
		t.Errorf("level-2 Get was not a miss: %+v", got)
	}
}

func TestBudgetChargedBytes(t *testing.T) {
	b := guard.New(guard.Limits{Units: 50}) // far below one partition's bytes
	r, s := fixture(t, 0, b)
	pr := partition.NewProber(r.Rows())
	lp, _ := s.Get(attrset.Single(0), pr)
	rp, _ := s.Get(attrset.Single(1), pr)
	err := s.Put(attrset.New(0, 1), attrset.Single(0), attrset.Single(1), 2, pr.Product(lp, rp))
	if !errors.Is(err, guard.ErrBudget) {
		t.Fatalf("Put err = %v, want ErrBudget", err)
	}
	if b.Used() == 0 {
		t.Error("budget not charged")
	}
}

func TestForgetReleasesBytesButStaysRecomputable(t *testing.T) {
	r, s := fixture(t, 0, nil)
	want := putProduct(t, r, s, attrset.Single(0), attrset.Single(1))
	s.Forget(2)
	st := s.Stats()
	if st.ResidentBytes != 0 {
		t.Errorf("ResidentBytes = %d after Forget, want 0", st.ResidentBytes)
	}
	if st.Evictions != 0 {
		t.Errorf("Forget counted as eviction: %+v", st)
	}
	got, err := s.Get(attrset.New(0, 1), partition.NewProber(r.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameParts(got, want) {
		t.Error("forgotten partition recomputed wrong")
	}
}

func TestEvictFaultPropagates(t *testing.T) {
	faultinject.Set(faultinject.PstoreEvict, faultinject.FailWith(errors.New("boom")))
	defer faultinject.Reset()
	r, s := fixture(t, 1, nil)
	pr := partition.NewProber(r.Rows())
	lp, _ := s.Get(attrset.Single(0), pr)
	rp, _ := s.Get(attrset.Single(1), pr)
	if err := s.Put(attrset.New(0, 1), attrset.Single(0), attrset.Single(1), 2, pr.Product(lp, rp)); err == nil {
		t.Fatal("eviction fault swallowed")
	}
	// The store must stay usable: the mutex was released, roots intact.
	if _, err := s.Get(attrset.Single(0), pr); err != nil {
		t.Fatalf("store unusable after eviction fault: %v", err)
	}
}

// TestConcurrentGets hammers a tight-capped store from several goroutines
// with private probers: run under -race.
func TestConcurrentGets(t *testing.T) {
	r, s := fixture(t, 300, nil)
	putProduct(t, r, s, attrset.Single(0), attrset.Single(1))
	putProduct(t, r, s, attrset.Single(0), attrset.Single(2))
	putProduct(t, r, s, attrset.New(0, 1), attrset.New(0, 2))
	want, err := s.Get(attrset.New(0, 1, 2), partition.NewProber(r.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pr := partition.NewProber(r.Rows())
			for i := 0; i < 50; i++ {
				for _, x := range []attrset.Set{
					attrset.New(0, 1), attrset.New(0, 2), attrset.New(0, 1, 2),
				} {
					got, err := s.Get(x, pr)
					if err != nil {
						errs[w] = err
						return
					}
					if x == attrset.New(0, 1, 2) && !sameParts(got, want) {
						errs[w] = fmt.Errorf("worker %d: wrong partition for %v", w, x)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
