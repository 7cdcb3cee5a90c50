package fastfds

import (
	"context"
	"testing"

	"repro/internal/attrset"
	"repro/internal/fd"
	"repro/internal/maxsets"
	"repro/internal/relation"
)

func TestOrderByCoverage(t *testing.T) {
	diff := attrset.Family{
		attrset.New(0, 1),
		attrset.New(1, 2),
		attrset.New(1),
	}
	order := orderByCoverage([]int{0, 1, 2, 3}, diff)
	// 1 covers 3 sets, 0 and 2 cover 1 each (tie → index order), 3
	// covers none and is dropped.
	want := []int{1, 0, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFromAgreeSetsDirect(t *testing.T) {
	// Paper agree sets → paper FDs, bypassing the relation.
	sets := attrset.Family{
		attrset.Empty(),
		attrset.New(0),       // A
		attrset.New(1, 3, 4), // BDE
		attrset.New(2, 4),    // CE
		attrset.New(4),       // E
	}
	lhs, _, err := Covers(context.Background(), maxsets.Compute(sets, 5).CMax, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got fd.Cover
	for a, xs := range lhs {
		for _, x := range xs {
			got = append(got, fd.FD{LHS: x, RHS: a})
		}
	}
	got.Sort()
	if want := fd.MineBrute(relation.PaperExample()); got.String() != want.String() {
		t.Errorf("FDs =\n%s\nwant\n%s", got, want)
	}
}
