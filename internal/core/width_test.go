package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/tane"
)

// TestCoverAcrossSetWidths runs the pipeline on 63-, 64- and
// 65-attribute relations: steps 3–4 search at one word on the first two
// and at attrset.Set's width on the third. Each cover — about 300k FDs —
// must be byte-identical at Workers 1 and 2 and equal to TANE's.
func TestCoverAcrossSetWidths(t *testing.T) {
	for _, attrs := range []int{63, 64, 65} {
		t.Run(fmt.Sprintf("R=%d", attrs), func(t *testing.T) {
			r, err := datagen.Generate(datagen.Spec{Attrs: attrs, Rows: 1000, Correlation: 0.95, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			want, err := tane.Run(context.Background(), r, tane.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.FDs) < 250000 {
				t.Fatalf("TANE found %d FDs, want the ~300k of this shape", len(want.FDs))
			}
			for _, workers := range []int{1, 2} {
				res, err := Discover(context.Background(), r, Options{Armstrong: ArmstrongNone, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.FDs, want.FDs) {
					t.Fatalf("workers=%d: %d FDs, TANE %d, or they differ", workers, len(res.FDs), len(want.FDs))
				}
			}
		})
	}
}
