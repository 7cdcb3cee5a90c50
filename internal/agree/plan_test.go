package agree

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/partition"
	"repro/internal/relation"
)

// bruteCouples is the couple space's oracle: every couple t < u whose
// agree set is non-empty, encoded t<<32 | u in increasing order, straight
// from the relation.
func bruteCouples(r *relation.Relation) []uint64 {
	out := []uint64{}
	for t := 0; t < r.Rows(); t++ {
		for u := t + 1; u < r.Rows(); u++ {
			if !r.AgreeSet(t, u).IsEmpty() {
				out = append(out, uint64(t)<<32|uint64(u))
			}
		}
	}
	return out
}

// codesRelation builds a relation from dictionary-code columns.
func codesRelation(t *testing.T, cols [][]int) *relation.Relation {
	t.Helper()
	r, err := relation.FromCodes(make([]string, len(cols)), cols)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPlanCouplesMatchBruteForce: the plan's regenerated couple sequence
// holds each brute-force couple with a non-empty agree set exactly once,
// grouped by ascending u; every Split(n) shard and random [lo, hi) cut
// regenerates exactly its slice of that sequence; and one workerState
// reused across two tasks that split one tuple's couples regenerates
// both slices exactly. Relations have 0, 1 and 2 rows, constant
// columns, duplicate rows, identical columns (the MC tie-break) and one
// giant class.
func TestPlanCouplesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var rels []*relation.Relation
	for _, rows := range []int{0, 1, 2} {
		for attrs := 1; attrs <= 3; attrs++ {
			rels = append(rels, randomRelation(t, rng, attrs, rows, 2))
		}
	}
	giant := [][]int{make([]int, 150), make([]int, 150), make([]int, 150)}
	for i := range giant[1] {
		giant[1][i] = i % 4
		giant[2][i] = i
	}
	rels = append(rels, codesRelation(t, giant))
	for iter := 0; iter < 150; iter++ {
		attrs, rows := 1+rng.Intn(6), rng.Intn(50)
		cols := make([][]int, attrs)
		for a := range cols {
			cols[a] = make([]int, rows)
			switch k := rng.Intn(6); {
			case k == 0: // constant column
			case k == 1 && a > 0: // identical to an earlier column
				copy(cols[a], cols[rng.Intn(a)])
			default:
				dom := 1 + rng.Intn(6)
				for i := range cols[a] {
					cols[a][i] = rng.Intn(dom)
				}
			}
		}
		for i := 1; i < rows; i++ {
			if rng.Intn(5) == 0 { // duplicate an earlier row
				src := rng.Intn(i)
				for a := range cols {
					cols[a][i] = cols[a][src]
				}
			}
		}
		rels = append(rels, codesRelation(t, cols))
	}
	for i, r := range rels {
		p := mustPlan(t, partition.NewDatabase(r))
		n := p.Couples()
		all := regenerate(p, 0, n, &workerState{})
		for k := 1; k < n; k++ {
			if coupleU(all[k]) < coupleU(all[k-1]) {
				t.Fatalf("relation %d: couple %d's u %d follows u %d", i, k, coupleU(all[k]), coupleU(all[k-1]))
			}
		}
		sorted := slices.Clone(all)
		slices.Sort(sorted)
		if want := bruteCouples(r); !slices.Equal(sorted, want) {
			t.Fatalf("relation %d (%d×%d): couples %v, want %v", i, r.Rows(), r.Arity(), sorted, want)
		}
		var cuts []Shard
		for _, shards := range []int{1, 2, 3, 7} {
			cuts = append(cuts, p.Split(shards)...)
		}
		for range 5 {
			lo := rng.Intn(n + 1)
			cuts = append(cuts, Shard{lo, lo + rng.Intn(n-lo+1)})
		}
		for _, sh := range cuts {
			if got := regenerate(p, sh.Start, sh.End, &workerState{}); !slices.Equal(got, all[sh.Start:sh.End]) {
				t.Fatalf("relation %d: range %v regenerates %v, want %v", i, sh, got, all[sh.Start:sh.End])
			}
		}
		// Two tasks on one worker, cut inside the couples of the tuple
		// with the most partners.
		if n < 2 {
			continue
		}
		ends := p.cs.Ends()
		u := 0
		for v := range r.Rows() {
			if ends[v+1]-ends[v] > ends[u+1]-ends[u] {
				u = v
			}
		}
		if ends[u+1]-ends[u] < 2 {
			continue
		}
		ws := &workerState{}
		mid := ends[u] + 1 + rng.Intn(ends[u+1]-ends[u]-1)
		for _, sh := range []Shard{{ends[u], mid}, {mid, ends[u+1]}} {
			if got := regenerate(p, sh.Start, sh.End, ws); !slices.Equal(got, all[sh.Start:sh.End]) {
				t.Fatalf("relation %d: reused worker regenerates %v as %v, want %v", i, sh, got, all[sh.Start:sh.End])
			}
		}
	}
}

// regenerate regenerates the couples [lo, hi) of p on ws, as a task
// does, encoded t<<32 | u.
func regenerate(p *Plan, lo, hi int, ws *workerState) []uint64 {
	var u int
	ws.partners, u = p.cs.Partners(lo, hi, &ws.walker, ws.partners)
	ends := p.cs.Ends()
	if lo < hi && (ends[u] > lo || lo >= ends[u+1]) {
		panic(fmt.Sprintf("Partners(%d, %d) reports tuple %d, whose couples are [%d, %d)", lo, hi, u, ends[u], ends[u+1]))
	}
	out := make([]uint64, len(ws.partners))
	for i, t := range ws.partners {
		for lo+i >= ends[u+1] {
			u++
		}
		out[i] = uint64(t)<<32 | uint64(u)
	}
	return out
}

func coupleU(e uint64) int { return int(uint32(e)) }

// TestCouplesWideMatchesNaive: the bit-per-(attribute, couple) layout
// assembles the same ag(r) as the naive scan at arities that span two and
// three set words, for chunk sizes on both sides of a bit-row word, at
// several worker counts. The 40×150 relation gives nearly every one of
// its 11,175 couples an agree set of its own, so a couple lost at an
// assembly-stride boundary (default chunk size) changes ag(r).
func TestCouplesWideMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for _, shape := range [][2]int{{70, 40}, {130, 40}, {40, 150}} {
		r := randomRelation(t, rng, shape[0], shape[1], 2)
		ref, err := Naive(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		db := partition.NewDatabase(r)
		for _, chunk := range []int{0, 1, 7, 63, 64, 65, 4097} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("arity=%d/rows=%d/chunk=%d/workers=%d", shape[0], shape[1], chunk, workers), func(t *testing.T) {
					res, err := Couples(ctx, db, Options{ChunkSize: chunk, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Sets.Equal(ref.Sets) {
						t.Fatalf("ag(r) differs from Naive: %d sets vs %d", len(res.Sets), len(ref.Sets))
					}
				})
			}
		}
	}
}

// TestChunkCut counts Algorithm 2 tasks through the AgreeChunk hook: a
// one-chunk plan gives min(W, ⌈couples/stride⌉) tasks at W workers, a
// 7-couple chunk size gives one task per chunk, and Result.Chunks is the
// paper's ⌈couples/ChunkSize⌉ whatever the worker count.
func TestChunkCut(t *testing.T) {
	ctx := context.Background()
	big := [][]int{make([]int, 200), make([]int, 200)}
	for i := range big[1] {
		big[1][i] = i % 3
	}
	small := randomRelation(t, rand.New(rand.NewSource(5)), 3, 30, 3)
	for _, r := range []*relation.Relation{codesRelation(t, big), small} {
		db := partition.NewDatabase(r)
		couples := mustPlan(t, db).Couples()
		for _, workers := range []int{1, 2, 3, 8} {
			fires := countSweeps(t)
			res, err := Couples(ctx, db, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if want := min(workers, (couples+stride-1)/stride); fires.Load() != int64(want) {
				t.Errorf("%d couples, workers=%d: %d tasks, want %d", couples, workers, fires.Load(), want)
			}
			if res.Chunks != 1 {
				t.Errorf("%d couples, workers=%d: Chunks = %d, want 1", couples, workers, res.Chunks)
			}
			fires.Store(0)
			res, err = Couples(ctx, db, Options{ChunkSize: 7, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			want := (couples + 6) / 7
			if fires.Load() != int64(want) || res.Chunks != want {
				t.Errorf("%d couples, chunk=7, workers=%d: %d tasks, Chunks = %d, want %d", couples, workers, fires.Load(), res.Chunks, want)
			}
		}
	}
}

// TestTaskSize pins the cut itself: no task exceeds a chunk, none is cut
// below stride unless the chunk is smaller, and W workers never get more
// than max(W, chunks) tasks.
func TestTaskSize(t *testing.T) {
	for _, n := range []int{1, 7, stride - 1, stride, 3*stride + 1, 1 << 20, 5 << 20} {
		for _, chunk := range []int{1, 7, stride, 1 << 14, DefaultChunkSize} {
			for _, workers := range []int{1, 2, 3, 8} {
				size := taskSize(n, chunk, workers)
				tasks := (n + size - 1) / size
				chunks := (n + chunk - 1) / chunk
				if size > chunk || size < min(chunk, stride) || tasks > max(workers, chunks) {
					t.Errorf("n=%d chunk=%d workers=%d: task size %d (%d tasks, %d chunks)", n, chunk, workers, size, tasks, chunks)
				}
			}
		}
	}
}
