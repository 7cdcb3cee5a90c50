package extsort

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/attrset"
	"repro/internal/faultinject"
	"repro/internal/guard"
)

// randomRuns builds n sorted deduplicated runs of random sets, plus the
// sorted deduplicated union — the merge's expected output.
func randomRuns(t *testing.T, rng *rand.Rand, n, perRun int) ([][]attrset.Set, []attrset.Set) {
	t.Helper()
	runs := make([][]attrset.Set, n)
	var all []attrset.Set
	for i := range runs {
		run := make([]attrset.Set, 0, perRun)
		for j := 0; j < perRun; j++ {
			var s attrset.Set
			// Small word values force cross-run duplicates.
			s[0] = uint64(rng.Intn(perRun * 2))
			s[1] = uint64(rng.Intn(3))
			run = append(run, s)
		}
		sortDedup(&run)
		runs[i] = run
		all = append(all, run...)
	}
	sortDedup(&all)
	return runs, all
}

func sortDedup(run *[]attrset.Set) {
	sort.Slice(*run, func(i, j int) bool { return Compare((*run)[i], (*run)[j]) < 0 })
	*run = slices.CompactFunc(*run, func(a, b attrset.Set) bool { return Compare(a, b) == 0 })
}

func collect(t *testing.T, sp *Spiller, inMem [][]attrset.Set) []attrset.Set {
	t.Helper()
	var got []attrset.Set
	if err := sp.Merge(inMem, func(s attrset.Set) error {
		got = append(got, s)
		return nil
	}); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	return got
}

func TestMergeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spilled := range []int{0, 1, 3, 7} {
		for _, inMem := range []int{0, 1, 4} {
			if spilled == 0 && inMem == 0 {
				continue
			}
			runs, want := randomRuns(t, rng, spilled+inMem, 1000)
			sp := NewSpiller(t.TempDir(), nil)
			for _, run := range runs[:spilled] {
				if err := sp.Spill(run); err != nil {
					t.Fatalf("Spill: %v", err)
				}
			}
			got := collect(t, sp, runs[spilled:])
			if !slices.Equal(got, want) {
				t.Fatalf("spilled=%d inMem=%d: merge mismatch: got %d sets, want %d",
					spilled, inMem, len(got), len(want))
			}
			st := sp.Stats()
			if st.RunsSpilled != int64(spilled) {
				t.Fatalf("RunsSpilled = %d, want %d", st.RunsSpilled, spilled)
			}
			if spilled > 0 && (st.SpilledBytes == 0 || st.ReadBlocks == 0) {
				t.Fatalf("expected nonzero spill counters, got %+v", st)
			}
			if err := sp.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	}
}

// TestMergeMultiBlock spills a run spanning several checksummed blocks.
func TestMergeMultiBlock(t *testing.T) {
	run := make([]attrset.Set, 3*blockSets+17)
	for i := range run {
		run[i][0] = uint64(i)
	}
	sp := NewSpiller(t.TempDir(), nil)
	defer sp.Close()
	if err := sp.Spill(run); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	got := collect(t, sp, nil)
	if !slices.Equal(got, run) {
		t.Fatalf("multi-block round trip mismatch: got %d sets, want %d", len(got), len(run))
	}
	if st := sp.Stats(); st.ReadBlocks != 4 {
		t.Fatalf("ReadBlocks = %d, want 4", st.ReadBlocks)
	}
}

func TestSpillChargesBudget(t *testing.T) {
	run := make([]attrset.Set, 100)
	for i := range run {
		run[i][0] = uint64(i)
	}
	want := runFileSize(len(run))

	// Generous budget: the spill succeeds and charges exactly the file size.
	b := guard.New(guard.Limits{Units: want * 10})
	sp := NewSpiller(t.TempDir(), b)
	if err := sp.Spill(run); err != nil {
		t.Fatalf("Spill under budget: %v", err)
	}
	if got := sp.Stats().SpilledBytes; got != want {
		t.Fatalf("SpilledBytes = %d, want %d", got, want)
	}
	if fi, err := os.Stat(sp.files[0]); err != nil || fi.Size() != want {
		t.Fatalf("run file size = %v/%v, want %d", fi, err, want)
	}
	sp.Close()

	// Tiny budget: the spill is refused, no file is left behind.
	dir := t.TempDir()
	b = guard.New(guard.Limits{Units: 16})
	sp = NewSpiller(dir, b)
	err := sp.Spill(run)
	if err == nil || !guard.Governed(err) {
		t.Fatalf("Spill over budget: err = %v, want governed", err)
	}
	if sp.Runs() != 0 {
		t.Fatalf("refused spill registered a run")
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		sub, _ := os.ReadDir(filepath.Join(dir, e.Name()))
		if len(sub) != 0 {
			t.Fatalf("refused spill left files behind: %v", sub)
		}
	}
	sp.Close()
}

func TestCorruptionDetected(t *testing.T) {
	run := make([]attrset.Set, 2000)
	for i := range run {
		run[i][0] = uint64(i)
	}
	corrupt := func(name string, mutate func(b []byte)) {
		t.Run(name, func(t *testing.T) {
			sp := NewSpiller(t.TempDir(), nil)
			defer sp.Close()
			if err := sp.Spill(run); err != nil {
				t.Fatalf("Spill: %v", err)
			}
			path := sp.files[0]
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutate(b)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			err = sp.Merge(nil, func(attrset.Set) error { return nil })
			if err == nil {
				t.Fatalf("merge of corrupted run succeeded")
			}
		})
	}
	corrupt("bit-flip", func(b []byte) { b[len(runMagic)+blockHeaderLen+5] ^= 0x40 })
	corrupt("bad-magic", func(b []byte) { b[0] = 'X' })
	corrupt("implausible-length", func(b []byte) {
		binary.LittleEndian.PutUint32(b[len(runMagic):], uint32(maxBlockBytes+SetBytes))
	})
}

// TestTornTail truncates a run file mid-record: the reader must fail, not
// silently stop at the last whole block.
func TestTornTail(t *testing.T) {
	run := make([]attrset.Set, 500)
	for i := range run {
		run[i][0] = uint64(i)
	}
	sp := NewSpiller(t.TempDir(), nil)
	defer sp.Close()
	if err := sp.Spill(run); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	path := sp.files[0]
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-SetBytes/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := sp.Merge(nil, func(attrset.Set) error { return nil }); err == nil {
		t.Fatalf("merge of torn run succeeded")
	}
}

func TestFaultInjection(t *testing.T) {
	run := make([]attrset.Set, 100)
	for i := range run {
		run[i][0] = uint64(i)
	}
	injected := errors.New("injected")

	for _, point := range []string{
		faultinject.ExtsortFlush, faultinject.ExtsortRead, faultinject.ExtsortMerge,
	} {
		t.Run(point, func(t *testing.T) {
			faultinject.Set(point, faultinject.FailWith(injected))
			defer faultinject.Reset()
			sp := NewSpiller(t.TempDir(), nil)
			defer sp.Close()
			err := sp.Spill(run)
			if point == faultinject.ExtsortFlush {
				if !errors.Is(err, injected) {
					t.Fatalf("Spill: err = %v, want injected", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Spill: %v", err)
			}
			err = sp.Merge(nil, func(attrset.Set) error { return nil })
			if !errors.Is(err, injected) {
				t.Fatalf("Merge: err = %v, want injected", err)
			}
		})
	}
}

func TestCloseRemovesDir(t *testing.T) {
	parent := t.TempDir()
	sp := NewSpiller(parent, nil)
	run := []attrset.Set{{1}, {2}}
	if err := sp.Spill(run); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	sp.mu.Lock()
	dir := sp.dir
	sp.mu.Unlock()
	if dir == "" {
		t.Fatalf("no spill dir created")
	}
	if err := sp.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir still present after Close: %v", err)
	}
	// Idempotent.
	if err := sp.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestEmitErrorPropagates(t *testing.T) {
	sp := NewSpiller(t.TempDir(), nil)
	defer sp.Close()
	boom := errors.New("boom")
	err := sp.Merge([][]attrset.Set{{{1}, {2}}}, func(attrset.Set) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestStatsAddSumsEveryField sets every Stats field through reflection,
// so a counter added to Stats but left out of Add fails here.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}
