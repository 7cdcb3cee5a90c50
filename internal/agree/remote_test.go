package agree

// Remote-path tests without HTTP: a fake Remote serves ComputeShard runs
// through the DMRUN1 wire format and fails a chosen subset of shards.
// The root package's FuzzPlan checks that any mix of remote and local
// shards gives the single-node family, over a live fleet.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/attrset"
	"repro/internal/datagen"
	"repro/internal/extsort"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/partition"
	"repro/internal/relation"
)

// fakeRemote serves shards from its own plan, failing shard i with
// fail(i) when that is non-nil. It records the variant of every Fetch
// and caches each encoded run.
type fakeRemote struct {
	plan *Plan
	n    int
	fail func(i int) error

	mu       sync.Mutex
	variants []Variant
	runs     map[Shard]servedRun
	adopted  int64 // wire bytes of the runs Fetch delivered
}

// servedRun is a shard's run in the wire format and its couple count.
type servedRun struct {
	run     []byte
	couples int
}

func (f *fakeRemote) Shards() int { return f.n }

func (f *fakeRemote) Fetch(ctx context.Context, i int, sh Shard, v Variant, sp *extsort.Spiller) (int, error) {
	f.mu.Lock()
	f.variants = append(f.variants, v)
	f.mu.Unlock()
	if f.fail != nil {
		if err := f.fail(i); err != nil {
			return 0, err
		}
	}
	sr, err := f.run(ctx, sh, v)
	if err != nil {
		return 0, err
	}
	pr, err := sp.AdoptRun(bytes.NewReader(sr.run), 0)
	if err != nil {
		return 0, err
	}
	pr.Commit()
	f.mu.Lock()
	f.adopted += int64(len(sr.run))
	f.mu.Unlock()
	return sr.couples, nil
}

// run is shard sh's served run, computed on first use.
func (f *fakeRemote) run(ctx context.Context, sh Shard, v Variant) (servedRun, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if sr, ok := f.runs[sh]; ok {
		return sr, nil
	}
	var buf bytes.Buffer
	rw := extsort.NewRunWriter(&buf)
	res, err := f.plan.ComputeShard(ctx, sh, v, Options{Workers: 1}, rw.Write)
	if err != nil {
		return servedRun{}, err
	}
	if err := rw.Close(); err != nil {
		return servedRun{}, err
	}
	if f.runs == nil {
		f.runs = map[Shard]servedRun{}
	}
	f.runs[sh] = servedRun{buf.Bytes(), res.Couples}
	return f.runs[sh], nil
}

// countSweeps arms both sweep hooks with a counter of local sweep tasks.
func countSweeps(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	count := func() error { n.Add(1); return nil }
	faultinject.Set(faultinject.AgreeChunk, count)
	faultinject.Set(faultinject.AgreeStride, count)
	t.Cleanup(faultinject.Reset)
	return &n
}

// TestRemoteGovernedFetchNoLocalSweep: a governed fetch error shares the
// run's budget, so it fails the run as a governed partial and no shard
// falls back to a local sweep.
func TestRemoteGovernedFetchNoLocalSweep(t *testing.T) {
	db := partition.NewDatabase(relation.PaperExample())
	plan := mustPlan(t, db)
	ref, err := Couples(context.Background(), db, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, governed := range []int{0b11, 0b01} { // every shard; shard 0 only
		remote := &fakeRemote{plan: plan, n: 2, fail: func(i int) error {
			if governed>>i&1 == 1 {
				return fmt.Errorf("adopting shard %d: %w", i, guard.ErrBudget)
			}
			return nil
		}}
		for _, sh := range plan.Split(2) { // the served runs exist before counting
			if _, err := remote.run(context.Background(), sh, VariantCouples); err != nil {
				t.Fatal(err)
			}
		}
		swept := countSweeps(t)
		res, err := plan.Run(context.Background(), VariantCouples, Options{Workers: 1}, remote)
		if !errors.Is(err, guard.ErrBudget) || res == nil {
			t.Fatalf("mask %b: res=%v err=%v, want a governed partial", governed, res, err)
		}
		if n := swept.Load(); n != 0 {
			t.Fatalf("mask %b: %d local sweep tasks ran after a governed fetch error", governed, n)
		}
		for _, s := range res.Sets {
			if !slices.Contains(ref.Sets, s) {
				t.Fatalf("mask %b: partial family holds %v, not in ag(r)", governed, s)
			}
		}
	}
}

// TestRemoteShardMergeFault: the ShardMerge point fires before the merge
// of a run with a remote, and only there.
func TestRemoteShardMergeFault(t *testing.T) {
	plan := mustPlan(t, partition.NewDatabase(relation.PaperExample()))
	injected := errors.New("injected merge fault")
	faultinject.Set(faultinject.ShardMerge, faultinject.FailWith(injected))
	t.Cleanup(faultinject.Reset)
	if _, err := plan.Run(context.Background(), VariantCouples, Options{}, &fakeRemote{plan: plan, n: 2}); !errors.Is(err, injected) {
		t.Fatalf("remote run under a merge fault: err = %v", err)
	}
	if _, err := plan.Run(context.Background(), VariantCouples, Options{}, nil); err != nil {
		t.Fatalf("local run fired the shard merge point: %v", err)
	}
}

// TestRemoteEmptyCoupleSpace: with no couples there is nothing to fetch,
// and the family is the single-node one.
func TestRemoteEmptyCoupleSpace(t *testing.T) {
	single, err := relation.FromCodes([]string{"a"}, [][]int{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, partition.NewDatabase(single))
	remote := &fakeRemote{plan: plan, n: 4}
	res, err := plan.Run(context.Background(), VariantCouples, Options{}, remote)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.variants) != 0 || !slices.Equal(res.Sets, attrset.Family{attrset.Empty()}) {
		t.Fatalf("fetches=%d sets=%v, want none and {∅}", len(remote.variants), res.Sets)
	}
}

// TestBudgetChargePinned pins what a governed run charges on the tall
// shape (12×30,000, c=0.5, seed 1): its 359,428 couples plus |ag(r)|,
// whether swept at one or two workers or fanned out over two fake
// remote shards with either one failing — the served shard's couples
// charged from its attestation, the failed one's by the local sweep.
// An adopted remote run also charges its wire bytes under "extsort".
func TestBudgetChargePinned(t *testing.T) {
	r, err := datagen.Generate(datagen.Spec{Attrs: 12, Rows: 30000, Correlation: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, partition.NewDatabase(r))
	const couples = 359428
	ctx := context.Background()
	check := func(name string, workers int, remote *fakeRemote) {
		t.Helper()
		b := guard.New(guard.Limits{Units: 1 << 40})
		var res *Result
		var err error
		adopted := int64(0)
		if remote == nil {
			res, err = plan.Run(ctx, VariantCouples, Options{Workers: workers, Budget: b}, nil)
		} else {
			res, err = plan.Run(ctx, VariantCouples, Options{Workers: workers, Budget: b}, remote)
			adopted = remote.adopted
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := int64(couples+len(res.Sets)) + adopted; res.Couples != couples || b.Used() != want {
			t.Fatalf("%s: %d couples, %d units used, want %d + |ag(r)| + %d adopted bytes = %d",
				name, res.Couples, b.Used(), couples, adopted, want)
		}
	}
	check("workers=1", 1, nil)
	check("workers=2", 2, nil)
	for _, failing := range []int{0, 1} {
		check(fmt.Sprintf("remote shard %d failing", failing), 2, &fakeRemote{plan: plan, n: 2, fail: func(i int) error {
			if i == failing {
				return errors.New("worker down")
			}
			return nil
		}})
	}
}
