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
