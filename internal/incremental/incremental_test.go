package incremental

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/agree"
	"repro/internal/attrset"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/relation"
)

func coversIdentical(a, b fd.Cover) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPaperExampleIncrementally(t *testing.T) {
	r := relation.PaperExample()
	m, err := New(r.Names())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for tt := 0; tt < r.Rows(); tt++ {
		if err := m.Insert(r.Row(tt)); err != nil {
			t.Fatal(err)
		}
		// After each insert, the incremental cover equals the batch
		// cover of the prefix relation.
		prefix := r.Restrict(seq(tt + 1))
		want, err := core.Discover(ctx, prefix, core.Options{Armstrong: core.ArmstrongNone})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Cover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !coversIdentical(got, want.FDs) {
			t.Fatalf("after %d inserts:\n got %s\nwant %s", tt+1, got, want.FDs)
		}
	}
	if m.Rows() != 7 || m.Arity() != 5 {
		t.Errorf("shape %d×%d", m.Rows(), m.Arity())
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestAgreeSetsMatchBatch(t *testing.T) {
	r := relation.PaperExample()
	m, err := FromStore(context.Background(), storeOf(t, r), 1)
	if err != nil {
		t.Fatal(err)
	}
	// FromStore seeds ag(r) with Algorithm 2, so the reference is the
	// naive pairwise scan, computed separately.
	batch, err := agree.Naive(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if !m.AgreeSets().Equal(batch.Sets) {
		t.Errorf("incremental ag = %v, batch = %v",
			m.AgreeSets().Strings(), batch.Sets.Strings())
	}
}

func TestEmptyAgreeSetTracking(t *testing.T) {
	m, err := New([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	check := func(want bool) {
		t.Helper()
		has := m.AgreeSets().Contains(attrset.Empty())
		if has != want {
			t.Fatalf("∅ present = %v, want %v (rows=%d)", has, want, m.Rows())
		}
	}
	check(false) // no tuples
	if err := m.Insert([]string{"1", "x"}); err != nil {
		t.Fatal(err)
	}
	check(false) // one tuple, no couples
	if err := m.Insert([]string{"2", "y"}); err != nil {
		t.Fatal(err)
	}
	check(true) // the couple disagrees everywhere
	if err := m.Insert([]string{"1", "y"}); err != nil {
		t.Fatal(err)
	}
	check(true) // still one everywhere-disagreeing couple
}

func TestInsertErrors(t *testing.T) {
	m, err := New([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert([]string{"only-one"}); err == nil {
		t.Error("ragged insert accepted")
	}
	if _, err := New(make([]string, attrset.MaxAttrs+1)); err == nil {
		t.Error("oversized schema accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := relation.PaperExample()
	m, err := FromStore(context.Background(), storeOf(t, r), 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rows() != r.Rows() || snap.Arity() != r.Arity() {
		t.Fatal("snapshot shape mismatch")
	}
	for tt := 0; tt < r.Rows(); tt++ {
		for a := 0; a < r.Arity(); a++ {
			if snap.Value(tt, a) != r.Value(tt, a) {
				t.Fatalf("snapshot value (%d,%d) = %q, want %q",
					tt, a, snap.Value(tt, a), r.Value(tt, a))
			}
		}
	}
}

func TestMaxSets(t *testing.T) {
	m, err := FromStore(context.Background(), storeOf(t, relation.PaperExample()), 1)
	if err != nil {
		t.Fatal(err)
	}
	max, err := m.MaxSets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := attrset.Family{attrset.New(0), attrset.New(1, 3, 4), attrset.New(2, 4)}
	if !max.Equal(want) {
		t.Errorf("MaxSets = %v, want %v", max.Strings(), want.Strings())
	}
}

func TestDuplicateInserts(t *testing.T) {
	m, err := New([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.Insert([]string{"1", "x"}); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicates agree on the full schema.
	if !m.AgreeSets().Contains(attrset.Universe(2)) {
		t.Error("duplicate tuples must contribute the full-schema agree set")
	}
}

// TestPropertyMatchesBatchOnRandomStreams: interleave inserts with cover
// checks against the batch pipeline on random tuple streams.
func TestPropertyMatchesBatchOnRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ctx := context.Background()
	for iter := 0; iter < 25; iter++ {
		n := 1 + rng.Intn(5)
		names := make([]string, n)
		for a := range names {
			names[a] = "c" + strconv.Itoa(a)
		}
		m, err := New(names)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]string
		steps := 2 + rng.Intn(18)
		for s := 0; s < steps; s++ {
			row := make([]string, n)
			for a := range row {
				row[a] = strconv.Itoa(rng.Intn(4))
			}
			rows = append(rows, row)
			if err := m.Insert(row); err != nil {
				t.Fatal(err)
			}
			if s%3 != steps%3 {
				continue // check at a third of the steps to keep it fast
			}
			r, err := relation.FromRows(names, rows)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Discover(ctx, r, core.Options{Armstrong: core.ArmstrongNone})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Cover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !coversIdentical(got, want.FDs) {
				t.Fatalf("iter %d step %d:\n got %s\nwant %s", iter, s, got, want.FDs)
			}
		}
	}
}

func TestCancellation(t *testing.T) {
	m, err := FromStore(context.Background(), storeOf(t, relation.PaperExample()), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Cover(ctx); err == nil {
		t.Error("cancelled context should abort Cover")
	}
}

func TestInsertCtxCancelledLeavesMinerUnchanged(t *testing.T) {
	m, err := FromStore(context.Background(), storeOf(t, relation.PaperExample()), 1)
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore := m.Rows()
	agreeBefore := m.AgreeSets()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = m.InsertCtx(ctx, relation.PaperExample().Row(0))
	if err == nil {
		t.Fatal("cancelled context should abort InsertCtx")
	}
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("InsertCtx abort error = %v, want guard.ErrDeadline in the chain", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("InsertCtx must return the typed sentinel, not the bare ctx error: %v", err)
	}
	if m.Rows() != rowsBefore {
		t.Fatalf("aborted insert changed Rows: %d → %d", rowsBefore, m.Rows())
	}
	after := m.AgreeSets()
	if len(after) != len(agreeBefore) {
		t.Fatalf("aborted insert changed ag(r): %d → %d sets", len(agreeBefore), len(after))
	}
	for i := range after {
		if after[i] != agreeBefore[i] {
			t.Fatalf("aborted insert changed ag(r) at %d", i)
		}
	}
	// The miner must remain usable: the same insert succeeds afterwards.
	if err := m.Insert(relation.PaperExample().Row(0)); err != nil {
		t.Fatalf("retry after aborted insert failed: %v", err)
	}
	if m.Rows() != rowsBefore+1 {
		t.Fatalf("retry did not commit: Rows = %d", m.Rows())
	}
}

func TestInsertCtxHonoursMidScanDeadline(t *testing.T) {
	// A relation whose every tuple shares a value with the next insert
	// produces rows-1 candidate couples, forcing the scan past several
	// stride boundaries so the mid-scan check (not the entry check) must
	// fire. The deadline context is created already expired.
	const rows = 4 * insertCheckStride
	m, err := New([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := m.Insert([]string{"shared", strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err = m.InsertCtx(ctx, []string{"shared", "fresh"})
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("expired deadline mid-scan: err = %v, want guard.ErrDeadline", err)
	}
	if m.Rows() != rows {
		t.Fatalf("aborted insert committed: Rows = %d, want %d", m.Rows(), rows)
	}
}

func TestFromRelationCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FromStore(ctx, storeOf(t, relation.PaperExample()), 1); !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("FromStore under cancelled ctx: err = %v, want guard.ErrDeadline", err)
	}
}

// sweepStream is the insert stream for the staged-commit fault sweep:
// every row shares values with earlier rows so each insert stages a
// non-empty batch of agree sets, making a mid-insert abort that leaked
// half a batch detectable.
func sweepStream() [][]string {
	rows := make([][]string, 12)
	for i := range rows {
		rows[i] = []string{
			"g" + strconv.Itoa(i%3),
			"h" + strconv.Itoa(i%2),
			"u" + strconv.Itoa(i),
		}
	}
	return rows
}

// sameAgree reports whether two miners hold the identical ag(r).
func sameAgree(a, b *Miner) bool {
	x, y := a.AgreeSets(), b.AgreeSets()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// referenceMiner replays the first n stream rows into a fresh miner.
func referenceMiner(t *testing.T, names []string, stream [][]string, n int) *Miner {
	t.Helper()
	ref, err := New(names)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range stream[:n] {
		if err := ref.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// TestInsertFaultSweepNeverLeaksPartialCommit injects a failure at every
// crossing of the incremental/insert fault point in turn — each stride
// check and each pre-commit gate of every insert in the stream — and
// asserts the staged-commit contract: an aborted insert leaves ag(r)
// exactly consistent with the committed row count (byte-identical to a
// from-scratch miner over those rows), and retrying converges to the
// same final state as a fault-free run.
func TestInsertFaultSweepNeverLeaksPartialCommit(t *testing.T) {
	defer faultinject.Reset()
	names := []string{"a", "b", "c"}
	stream := sweepStream()

	// Count the fault-point crossings of one clean run to size the sweep.
	crossings := 0
	faultinject.Set(faultinject.IncrementalInsert, func() error {
		crossings++
		return nil
	})
	clean := referenceMiner(t, names, stream, len(stream))
	faultinject.Reset()
	if crossings < len(stream) {
		t.Fatalf("only %d fault-point crossings for %d inserts; hook not wired?", crossings, len(stream))
	}

	errBoom := errors.New("injected insert fault")
	for k := 0; k < crossings; k++ {
		m, err := New(names)
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set(faultinject.IncrementalInsert, faultinject.After(k, faultinject.FailWith(errBoom)))
		faulted := -1
		for i, row := range stream {
			if ierr := m.InsertCtx(context.Background(), row); ierr != nil {
				if !errors.Is(ierr, errBoom) {
					t.Fatalf("k=%d row %d: unexpected error %v", k, i, ierr)
				}
				faulted = i
				break
			}
		}
		faultinject.Reset()
		if faulted < 0 {
			t.Fatalf("k=%d: fault never fired", k)
		}
		// The aborted insert must have committed nothing: rows and ag(r)
		// match a from-scratch replay of the successful prefix.
		if m.Rows() != faulted {
			t.Fatalf("k=%d: fault at row %d left Rows=%d", k, faulted, m.Rows())
		}
		if !sameAgree(m, referenceMiner(t, names, stream, faulted)) {
			t.Fatalf("k=%d: fault at row %d left ag(r) inconsistent with %d committed rows", k, faulted, faulted)
		}
		// Retrying the faulted row and the rest converges to the clean run.
		for _, row := range stream[faulted:] {
			if err := m.Insert(row); err != nil {
				t.Fatalf("k=%d: retry failed: %v", k, err)
			}
		}
		if m.Rows() != clean.Rows() || !sameAgree(m, clean) {
			t.Fatalf("k=%d: post-retry state diverged from fault-free run", k)
		}
	}
}

// storeOf adopts r into a store for FromStore.
func storeOf(t testing.TB, r *relation.Relation) *relation.Store {
	t.Helper()
	st, err := relation.StoreOf(r)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
