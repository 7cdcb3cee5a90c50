package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	depminer "repro"
	"repro/internal/agree"
	"repro/internal/armstrong"
	"repro/internal/attrset"
	"repro/internal/datagen"
	"repro/internal/fd"
	"repro/internal/hypergraph"
	"repro/internal/maxsets"
	"repro/internal/partition"
	"repro/internal/relation"
)

func runTallAgree(ctx context.Context, b *bench) error {
	spec := datagen.Spec{Attrs: 12, Rows: 30000, Correlation: 0.5}
	if b.cfg.smoke {
		spec.Rows = 1500
	}
	return runLibrary(ctx, b, spec)
}

func runWideLHS(ctx context.Context, b *bench) error {
	spec := datagen.Spec{Attrs: 30, Rows: 2000, Correlation: 0.3}
	if b.cfg.smoke {
		spec.Attrs, spec.Rows = 16, 300
	}
	return runLibrary(ctx, b, spec)
}

// runLibrary measures depminer.Discover with default Options, one caller
// back to back, on a generated relation loaded from CSV the way a
// one-shot CLI run loads it.
func runLibrary(ctx context.Context, b *bench, spec datagen.Spec) error {
	spec.Seed = b.cfg.seed
	gen, err := datagen.Generate(spec)
	if err != nil {
		return err
	}
	path := filepath.Join(b.cfg.dir, "input.csv")
	if err := writeCSVFile(path, gen.Names(), rowsOf(gen)); err != nil {
		return err
	}

	// Set-up is what a one-shot run pays before its answer: load the CSV
	// and discover once.
	var r *depminer.Relation
	var first *depminer.Result
	for range b.setupReps() {
		t0 := time.Now()
		if r, err = depminer.LoadCSVFile(path, true); err != nil {
			return err
		}
		if first, err = depminer.Discover(ctx, r, depminer.Options{}); err != nil {
			return fmt.Errorf("set-up discover: %w", err)
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
	}
	want, err := b.reference(ctx, r)
	if err != nil {
		return err
	}
	if err := sameFDs(first.FDs, want); err != nil {
		b.wrongCover(true, "set-up discover: %v", err)
	}

	plain := op{kind: "discover", run: func(ctx context.Context, _ int64) (func() error, error) {
		res, err := depminer.Discover(ctx, r, depminer.Options{})
		if err != nil {
			return nil, err
		}
		return func() error { return sameFDs(res.FDs, want) }, nil
	}}
	traced := op{kind: "discover", run: func(ctx context.Context, id int64) (func() error, error) {
		cover, err := b.tracedDiscover(ctx, r, id)
		if err != nil {
			return nil, err
		}
		return func() error { return sameFDs(cover, want) }, nil
	}}
	err = b.halves(ctx, func(ctx context.Context, ph *phase) error {
		o := plain
		if ph.traced {
			o = traced
		}
		b.drive(ctx, 1, ph, until(time.Now().Add(ph.length), func(int64) op { return o }))
		return nil
	})
	if err != nil || !b.cfg.trace {
		return err
	}

	spans := b.tr.byName()
	for name, metric := range map[string]string{
		"partition":  "partition.build_ms",
		"agree":      "agree.sweep_ms",
		"maxsets":    "maxsets.compute_ms",
		"hypergraph": "hypergraph.transversal_ms",
		"fd":         "fd.emit_ms",
		"armstrong":  "armstrong.build_ms",
	} {
		b.layer[metric] = meanMS(spans[name])
	}
	if pct := b.tr.closurePct(); pct < 95 {
		b.checkFailed("library trace closure %.1f%% < 95%%: a layer call is missing a span", pct)
	}
	return nil
}

// tracedDiscover is depminer.Discover with default Options, taken apart
// into its layer calls in core.Discover's order, each under its own span.
// It must produce the same cover as the untraced call.
func (b *bench) tracedDiscover(ctx context.Context, r *relation.Relation, op int64) (fd.Cover, error) {
	t := b.tr
	var db *partition.Database
	t.call(op, op, "partition", func() { db = partition.NewDatabase(r) })
	var agr *agree.Result
	var err error
	t.call(op, op, "agree", func() { agr, err = agree.Couples(ctx, db, agree.Options{}) })
	if err != nil {
		return nil, err
	}
	var ms *maxsets.Result
	var maxSets attrset.Family
	t.call(op, op, "maxsets", func() {
		ms = maxsets.Compute(agr.Sets, r.Arity())
		maxSets = ms.AllMax()
	})
	var lhs []attrset.Family
	t.call(op, op, "hypergraph", func() {
		hs := make([]*hypergraph.Hypergraph, r.Arity())
		for a := range hs {
			hs[a] = hypergraph.Simplify(ms.CMax[a])
		}
		lhs, err = hypergraph.TransversalsAll(ctx, hs, 0, nil)
	})
	if err != nil {
		return nil, err
	}
	var cover fd.Cover
	t.call(op, op, "fd", func() {
		for a, family := range lhs {
			for _, x := range family {
				if x != attrset.Single(a) {
					cover = append(cover, fd.FD{LHS: x, RHS: a})
				}
			}
		}
		cover.Sort()
	})
	t.call(op, op, "armstrong", func() {
		if _, aerr := armstrong.RealWorld(r, maxSets); aerr != nil {
			_, err = armstrong.Synthetic(maxSets, r.Names())
		}
	})
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.layer["agree.couples"] = float64(agr.Couples)
	b.layer["agree.sets_per_mcouple"] = 1e6 * ratio(float64(len(agr.Sets)), float64(agr.Couples))
	b.layer["maxsets.max_sets"] = float64(len(maxSets))
	b.layer["hypergraph.fds"] = float64(len(cover))
	b.mu.Unlock()
	return cover, nil
}

func sameFDs(got, want fd.Cover) error {
	if slices.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("wrong cover: %d FDs, reference %d", len(got), len(want))
}

// rowsOf returns r's rows as strings.
func rowsOf(r *relation.Relation) [][]string {
	rows := make([][]string, r.Rows())
	for t := range rows {
		rows[t] = r.Row(t)
	}
	return rows
}

// encodeCSV renders a header record and rows as CSV.
func encodeCSV(names []string, rows [][]string) ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(names); err != nil {
		return nil, err
	}
	if err := w.WriteAll(rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCSVFile(path string, names []string, rows [][]string) error {
	data, err := encodeCSV(names, rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
