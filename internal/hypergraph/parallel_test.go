package hypergraph

// Parallel-path tests for the per-attribute transversal fan-out: results
// byte-identical to the sequential order for any worker count, per-worker
// scratch that carries nothing between searches, and prompt leak-free
// unwinding on mid-flight cancellation. The CI race job runs this package
// in full under -race.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/guard"
)

func randomSimple(rng *rand.Rand) *Hypergraph {
	n := 1 + rng.Intn(8)
	edges := make(attrset.Family, 0, n)
	for i := 0; i < n; i++ {
		var e attrset.Set
		for a := 0; a < 8; a++ {
			if rng.Intn(3) == 0 {
				e.Add(a)
			}
		}
		edges = append(edges, e)
	}
	return Simplify(edges)
}

// TestParallelTransversalsMatchSequential pins the determinism guarantee
// of TransversalsAll against per-hypergraph sequential calls.
func TestParallelTransversalsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 40; iter++ {
		hs := make([]*Hypergraph, 1+rng.Intn(10))
		for i := range hs {
			if rng.Intn(6) == 0 {
				hs[i] = nil // edgeless shorthand
			} else {
				hs[i] = randomSimple(rng)
			}
		}
		want := make([]attrset.Family, len(hs))
		for i, h := range hs {
			if h == nil {
				h = &Hypergraph{}
			}
			tr, err := h.MinimalTransversals(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want[i] = tr
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := TransversalsAll(context.Background(), hs, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("iter %d workers=%d hypergraph %d: got %v, want %v",
						iter, workers, i, got[i].Strings(), want[i].Strings())
				}
			}
		}
	}
}

// mixedHypergraphs draws n hypergraphs of widely mixed size — edgeless,
// small, combinatorially wide, and up to 80 edges whose vertices sit past
// the first attrset word half of the time — so a reused scratch serves
// large searches before small ones and edge bitmaps of one and two words.
func mixedHypergraphs(t testing.TB, rng *rand.Rand, n int) []*Hypergraph {
	t.Helper()
	hs := make([]*Hypergraph, n)
	for i := range hs {
		switch rng.Intn(5) {
		case 0:
			// nil: the edgeless shorthand.
		case 1:
			hs[i] = randomSimple(rng)
		case 2:
			hs[i] = slowHypergraph(t, 2+rng.Intn(7))
		default:
			shift := 0
			if rng.Intn(2) == 0 {
				shift = 58
			}
			edges := make(attrset.Family, 1+rng.Intn(80))
			for j := range edges {
				for v := 0; v < 12; v++ {
					if rng.Intn(10) < 3 {
						edges[j].Add(v + shift)
					}
				}
			}
			hs[i] = Simplify(edges)
		}
	}
	return hs
}

// freshTransversals is the reference for the scratch tests: each search
// on its own fresh scratch.
func freshTransversals(t *testing.T, hs []*Hypergraph) []attrset.Family {
	t.Helper()
	want := make([]attrset.Family, len(hs))
	for i, h := range hs {
		if h == nil {
			h = &Hypergraph{}
		}
		tr, err := h.MinimalTransversals(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tr
	}
	return want
}

// TestParallelScratchReuseIsStateless: the per-worker scratch that
// TransversalsAll reuses across searches carries nothing from one search
// into the next. Results are byte-identical to fresh-scratch searches at
// workers 1 and 8, also on the clean run that follows a run cancelled
// mid-flight and one stopped by its budget.
func TestParallelScratchReuseIsStateless(t *testing.T) {
	defer faultinject.Reset()
	hs := mixedHypergraphs(t, rand.New(rand.NewSource(64)), 64)
	want := freshTransversals(t, hs)
	clean := func(label string, workers int) {
		t.Helper()
		got, err := TransversalsAll(context.Background(), hs, workers, nil)
		if err != nil {
			t.Fatalf("%s, workers=%d: %v", label, workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, workers=%d: results differ from fresh-scratch searches", label, workers)
		}
	}
	for _, workers := range []int{1, 8} {
		clean("first run", workers)

		ctx, cancel := context.WithCancel(context.Background())
		faultinject.Set(faultinject.HypergraphLevel, faultinject.After(40, func() error {
			cancel()
			return nil
		}))
		_, err := TransversalsAll(ctx, hs, workers, nil)
		faultinject.Reset()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled run err = %v, want context.Canceled", workers, err)
		}
		clean("after a cancelled run", workers)

		if _, err := TransversalsAll(context.Background(), hs, workers, guard.New(guard.Limits{Units: 200})); !errors.Is(err, guard.ErrBudget) {
			t.Fatalf("workers=%d: budgeted run err = %v, want guard.ErrBudget", workers, err)
		}
		clean("after a budget overrun", workers)
	}
}

// TestScratchSurvivesAbortedSearch shares one scratch across a sequence
// of searches in which every third one is stopped by a one-unit budget
// partway through its levels; every completed search must still equal a
// fresh one.
func TestScratchSurvivesAbortedSearch(t *testing.T) {
	hs := mixedHypergraphs(t, rand.New(rand.NewSource(65)), 64)
	want := freshTransversals(t, hs)
	var s scratch
	for i, h := range hs {
		if h == nil {
			h = &Hypergraph{}
		}
		if i%3 == 0 {
			// The error is expected except for searches too small to
			// overrun; either way the scratch is left mid-use.
			_, _ = h.transversals(context.Background(), guard.New(guard.Limits{Units: 1}), &s)
		}
		got, err := h.transversals(context.Background(), nil, &s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("hypergraph %d: reused scratch gave %v, fresh %v", i, got.Strings(), want[i].Strings())
		}
	}
}

// slowHypergraph builds k pairwise-disjoint 2-vertex edges: Tr(H) has 2^k
// minimal transversals and the levelwise search widens combinatorially,
// so the computation cannot finish before the test cancels it.
func slowHypergraph(t testing.TB, k int) *Hypergraph {
	t.Helper()
	edges := make(attrset.Family, k)
	for i := 0; i < k; i++ {
		edges[i] = attrset.New(2*i, 2*i+1)
	}
	h, err := New(edges)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestParallelTransversalsCancellationMidFlight cancels TransversalsAll
// while its workers are deep in levelwise searches, asserting prompt
// unwinding with a wrapped context.Canceled and no leaked goroutines.
func TestParallelTransversalsCancellationMidFlight(t *testing.T) {
	hs := make([]*Hypergraph, 8)
	for i := range hs {
		hs[i] = slowHypergraph(t, 14)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := TransversalsAll(ctx, hs, 4, nil)
		done <- err
	}()

	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() < base+3 {
		select {
		case err := <-done:
			t.Fatalf("finished before workers were observed (err=%v)", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("workers never spawned")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not unwind the transversal searches")
	}
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
