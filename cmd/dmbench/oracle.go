package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/relation"
	"repro/internal/tane"
)

// reference is the oracle's cover of r: sequential in-memory Dep-Miner
// (Workers 1, no Armstrong relation), cross-checked against TANE, a
// different algorithm, before anything is compared with it.
func (b *bench) reference(ctx context.Context, r *relation.Relation) (fd.Cover, error) {
	res, err := core.Discover(ctx, r, core.Options{Workers: 1, Armstrong: core.ArmstrongNone})
	if err != nil {
		return nil, fmt.Errorf("reference discovery: %w", err)
	}
	tr, err := tane.Run(ctx, r, tane.Options{})
	if err != nil {
		return nil, fmt.Errorf("reference TANE cross-check: %w", err)
	}
	if !slices.Equal(res.FDs, tr.FDs) {
		return nil, fmt.Errorf("reference: Dep-Miner found %d FDs, TANE %d", len(res.FDs), len(tr.FDs))
	}
	if b.cfg.tamper && len(res.FDs) > 0 {
		return res.FDs[:len(res.FDs)-1], nil
	}
	return res.FDs, nil
}

// render formats a cover the way depminerd does on the wire.
func render(c fd.Cover, names []string) []string {
	out := make([]string, len(c))
	for i, f := range c {
		out[i] = f.Names(names)
	}
	return out
}

// sameCover reports how got differs from the reference want.
func sameCover(got, want []string) error {
	if slices.Equal(got, want) {
		return nil
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("wrong cover: FD %d is %q, reference %q", i, got[i], want[i])
		}
	}
	return fmt.Errorf("wrong cover: %d FDs, reference %d", len(got), len(want))
}

// coverHash fingerprints a rendered cover, so responses can be kept for
// a later check without holding their FD lists in the measured heap.
func coverHash(c []string) uint64 {
	h := fnv.New64a()
	for _, s := range c {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
