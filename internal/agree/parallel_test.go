package agree

// Parallel-path tests: byte-identical results for any worker count, and
// prompt, leak-free unwinding when the context is cancelled while workers
// are in flight. The CI race job runs these with -race -run Parallel.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/partition"
	"repro/internal/relation"
)

// randomRelation builds a seeded random relation with enough value
// collisions to produce non-trivial agree sets.
func randomRelation(t testing.TB, rng *rand.Rand, attrs, rows, domain int) *relation.Relation {
	t.Helper()
	cols := make([][]int, attrs)
	for a := range cols {
		cols[a] = make([]int, rows)
		for i := range cols[a] {
			cols[a][i] = rng.Intn(domain)
		}
	}
	r, err := relation.FromCodes(make([]string, attrs), cols)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestParallelMatchesSequential pins the determinism guarantee: for both
// stripped-partition algorithms, every worker count yields a Result
// identical to the sequential reference (Workers=1), including the
// Couples counter.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		r := randomRelation(t, rng, 2+rng.Intn(5), 5+rng.Intn(60), 1+rng.Intn(5))
		db := partition.NewDatabase(r)
		for _, algo := range []struct {
			name string
			run  func(Options) (*Result, error)
		}{
			{"couples", func(o Options) (*Result, error) { return Couples(context.Background(), db, o) }},
			{"identifiers", func(o Options) (*Result, error) { return identifiers(context.Background(), db, o) }},
		} {
			seq, err := algo.run(Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				par, err := algo.run(Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !par.Sets.Equal(seq.Sets) {
					t.Fatalf("iter %d %s workers=%d: ag = %v, sequential = %v",
						iter, algo.name, workers, par.Sets.Strings(), seq.Sets.Strings())
				}
				if par.Couples != seq.Couples {
					t.Fatalf("iter %d %s workers=%d: %d couples, sequential %d",
						iter, algo.name, workers, par.Couples, seq.Couples)
				}
			}
		}
	}
}

// cancellationWorkload is a relation whose couple list is large enough
// that the sweep cannot finish before the test observes in-flight workers
// and cancels: `rows` tuples with 8-value columns give ~rows²/16 MC
// couples, and `attrs` scales the per-couple work of the identifier
// algorithm (ec-list length).
func cancellationWorkload(t testing.TB, attrs, rows int) *partition.Database {
	t.Helper()
	cols := make([][]int, attrs)
	for a := range cols {
		cols[a] = make([]int, rows)
		for i := range cols[a] {
			cols[a][i] = (i + a) % 8
		}
	}
	r, err := relation.FromCodes(make([]string, len(cols)), cols)
	if err != nil {
		t.Fatal(err)
	}
	return partition.NewDatabase(r)
}

// runCancelledMidFlight starts fn under a cancelable context, waits until
// the worker goroutines are observably in flight, cancels, and asserts
// the computation unwinds promptly with a wrapped context.Canceled and
// without leaking goroutines.
func runCancelledMidFlight(t *testing.T, fn func(context.Context) error) {
	t.Helper()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fn(ctx) }()

	// Wait for the pool workers to spawn (the +1 is the goroutine above).
	deadline := time.Now().Add(30 * time.Second)
	for runtime.NumGoroutine() < base+3 {
		select {
		case err := <-done:
			t.Fatalf("computation finished before workers were observed (err=%v); enlarge the workload", err)
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
		t.Fatal("cancellation did not unwind the computation: deadlock or stuck workers")
	}

	// All workers must exit: poll until the goroutine count returns to
	// the baseline (with slack for runtime-internal goroutines).
	deadline = time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelCouplesCancellationMidFlight cancels the Algorithm 2
// sweep while its workers are running: a task notices at its next batch
// checkpoint.
func TestParallelCouplesCancellationMidFlight(t *testing.T) {
	db := cancellationWorkload(t, 3, 4000)
	runCancelledMidFlight(t, func(ctx context.Context) error {
		_, err := Couples(ctx, db, Options{Workers: 4})
		return err
	})
}

// TestParallelIdentifiersCancellationMidFlight does the same for the
// identifier-intersection algorithm.
func TestParallelIdentifiersCancellationMidFlight(t *testing.T) {
	db := cancellationWorkload(t, 24, 6000)
	runCancelledMidFlight(t, func(ctx context.Context) error {
		_, err := identifiers(ctx, db, Options{Workers: 4})
		return err
	})
}

// TestParallelChunkBoundaries sweeps worker counts × tuple blocks of
// chunk tuples on one relation, guarding the range arithmetic of the
// task cut inside each block.
func TestParallelChunkBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(t, rng, 4, 40, 3)
	db := partition.NewDatabase(r)
	want, err := Couples(context.Background(), db, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, db)
	for _, chunk := range []int{1, 2, 3, 7, 64, 1 << 20} {
		for _, workers := range []int{2, 5} {
			t.Run("chunk="+strconv.Itoa(chunk)+"/workers="+strconv.Itoa(workers), func(t *testing.T) {
				checkShards(t, plan, blocks(r.Rows(), chunk), VariantCouples, Options{Workers: workers}, want)
			})
		}
	}
}
