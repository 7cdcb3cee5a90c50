package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/durable"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errRun := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), errRun
}

func paperCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "paper.csv")
	data := "empnum,depnum,year,depname,mgr\n" +
		"1,1,85,Biochemistry,5\n1,5,94,Admission,12\n2,2,92,Computer Sce,2\n" +
		"3,2,98,Computer Sce,2\n4,3,98,Geophysics,2\n5,1,75,Biochemistry,5\n6,5,88,Admission,12\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPaperExample(t *testing.T) {
	out, err := capture(t, func() error {
		cfg := config{algo: "depminer", armstrong: "auto", timeout: time.Minute, stats: true, showKeys: true, useNames: true}
		return cfg.run(context.Background())
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"14 minimal functional dependencies",
		"depnum,year → empnum",
		"Armstrong relation (real-world, 4 tuples",
		"candidate keys",
		"couples=6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunCSVFile(t *testing.T) {
	csv := paperCSV(t)
	for _, algo := range []string{"depminer", "depminer2", "naive", "fastfds"} {
		out, err := capture(t, func() error {
			cfg := config{algo: algo, armstrong: "none", timeout: time.Minute, args: []string{csv}}
			return cfg.run(context.Background())
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out, "BC → A") {
			t.Errorf("%s: output missing BC → A:\n%s", algo, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := capture(t, func() error {
		cfg := config{algo: "bogus", armstrong: "auto", timeout: time.Minute, useNames: true}
		return cfg.run(context.Background())
	}); err == nil {
		t.Error("unknown algo accepted")
	}
	if _, err := capture(t, func() error {
		cfg := config{algo: "depminer", armstrong: "bogus", timeout: time.Minute, useNames: true}
		return cfg.run(context.Background())
	}); err == nil {
		t.Error("unknown armstrong mode accepted")
	}
	if _, err := capture(t, func() error {
		cfg := config{algo: "depminer", armstrong: "auto", timeout: time.Minute, useNames: true, args: []string{"a", "b"}}
		return cfg.run(context.Background())
	}); err == nil {
		t.Error("two files accepted")
	}
	if _, err := capture(t, func() error {
		cfg := config{algo: "depminer", armstrong: "auto", timeout: time.Minute, useNames: true, args: []string{"/nonexistent.csv"}}
		return cfg.run(context.Background())
	}); err == nil {
		t.Error("missing file accepted")
	}
	// A negative limit is an error, not "unlimited".
	for _, cfg := range []config{
		{algo: "depminer", armstrong: "none", timeout: time.Minute, budget: -5},
		{algo: "depminer", armstrong: "none", timeout: -time.Second},
		{algo: "tane", timeout: time.Minute, budget: -1},
	} {
		out, err := capture(t, func() error { return cfg.run(context.Background()) })
		if err == nil || !strings.Contains(err.Error(), "must not be negative") || out != "" {
			t.Errorf("timeout %v, budget %d: err %v, output %q", cfg.timeout, cfg.budget, err, out)
		}
	}
}

func TestRunStreamed(t *testing.T) {
	csv := paperCSV(t)
	out, err := capture(t, func() error {
		cfg := config{algo: "depminer2", armstrong: "auto", timeout: time.Minute, useNames: true, stream: true, args: []string{csv}}
		return cfg.run(context.Background())
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "14 minimal functional dependencies") {
		t.Errorf("streamed output wrong:\n%s", out)
	}
	// FastFDs reads the same stripped partitions; -keys would need a
	// second pass over the single-use stream.
	out, err = capture(t, func() error {
		cfg := config{algo: "fastfds", armstrong: "auto", timeout: time.Minute, useNames: true, stream: true, args: []string{csv}}
		return cfg.run(context.Background())
	})
	if err != nil || !strings.Contains(out, "14 minimal functional dependencies (FastFDs)") {
		t.Errorf("-stream with fastfds: err %v, output:\n%s", err, out)
	}
	if _, err := capture(t, func() error {
		cfg := config{algo: "depminer", armstrong: "auto", timeout: time.Minute, useNames: true, stream: true, showKeys: true, args: []string{csv}}
		return cfg.run(context.Background())
	}); err == nil {
		t.Error("-stream with -keys accepted")
	}
	if _, err := capture(t, func() error {
		cfg := config{algo: "depminer", armstrong: "auto", timeout: time.Minute, useNames: true, stream: true}
		return cfg.run(context.Background())
	}); err == nil {
		t.Error("-stream without file accepted")
	}
}

// TestRunSnapshot discovers off a durable DMSNAP1 snapshot: the output —
// Armstrong relation and candidate keys included — must equal the plain
// CSV run's for every miner, TANE included, but naive, which needs the
// rows and must be refused.
func TestRunSnapshot(t *testing.T) {
	csv := paperCSV(t)
	r, err := depminer.LoadCSVFile(csv, true)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, r.Rows())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	empty, err := depminer.NewRelation(r.Names(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, _, err := durable.Open(durable.Options{Dir: dir, DisableFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := store.Create("paper", "paper", empty, durable.FingerprintOf(empty).Sum())
	if err != nil {
		t.Fatal(err)
	}
	tok, err := ds.Append(rows, r, durable.FingerprintOf(r).Sum())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Sync(tok); err != nil {
		t.Fatal(err)
	}
	if err := store.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "datasets", "paper", "snapshot.snap")

	run := func(cfg config) (string, error) {
		return capture(t, func() error { return cfg.run(context.Background()) })
	}
	for _, algo := range []string{"depminer", "fastfds"} {
		plain, err := run(config{algo: algo, armstrong: "auto", timeout: time.Minute, useNames: true, showKeys: true, args: []string{csv}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(config{algo: algo, armstrong: "auto", timeout: time.Minute, useNames: true, showKeys: true, snapshot: true, maxAgreeBytes: 1, spillDir: t.TempDir(), args: []string{snap}})
		if err != nil {
			t.Fatal(err)
		}
		if got != plain || !strings.Contains(got, "Armstrong relation (real-world, 4 tuples") || !strings.Contains(got, "candidate keys") {
			t.Errorf("%s: snapshot output differs from the CSV run:\n got %s\nwant %s", algo, got, plain)
		}
	}
	plain, err := run(config{algo: "tane", timeout: time.Minute, useNames: true, showKeys: true, args: []string{csv}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := run(config{algo: "tane", timeout: time.Minute, useNames: true, showKeys: true, snapshot: true, args: []string{snap}}); err != nil || got != plain {
		t.Errorf("tane: snapshot output differs from the CSV run (err %v):\n got %s\nwant %s", err, got, plain)
	}
	for _, cfg := range []config{
		{algo: "naive", armstrong: "auto", timeout: time.Minute, snapshot: true, args: []string{snap}},
		{algo: "depminer", armstrong: "auto", timeout: time.Minute, snapshot: true, args: []string{csv}},
	} {
		if _, err := run(cfg); err == nil {
			t.Errorf("-snapshot accepted algo=%s keys=%v file=%s", cfg.algo, cfg.showKeys, cfg.args[0])
		}
	}
}

func TestRunTANEPaperExample(t *testing.T) {
	out, err := capture(t, func() error {
		cfg := config{algo: "tane", timeout: time.Minute, stats: true}
		return cfg.run(context.Background())
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "14 minimal functional dependencies") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "BC → A") {
		t.Error("letter notation missing")
	}
	if !strings.Contains(out, "lattice:") {
		t.Error("stats missing")
	}
}

func TestRunTANEApproximate(t *testing.T) {
	out, err := capture(t, func() error {
		cfg := config{algo: "tane", epsilon: 0.3, timeout: time.Minute, useNames: true}
		return cfg.run(context.Background())
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "approximate dependencies (g3 ≤ 0.3)") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunTANECSVAndErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,x\n2,x\n3,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		cfg := config{algo: "tane", maxLHS: 1, timeout: time.Minute, useNames: true, args: []string{path}}
		return cfg.run(context.Background())
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "a → b") {
		t.Errorf("output:\n%s", out)
	}
	if _, err := capture(t, func() error {
		cfg := config{algo: "tane", epsilon: -1, timeout: time.Minute, useNames: true}
		return cfg.run(context.Background())
	}); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := capture(t, func() error {
		cfg := config{algo: "tane", timeout: time.Minute, useNames: true, args: []string{"x", "y"}}
		return cfg.run(context.Background())
	}); err == nil {
		t.Error("two files accepted")
	}
}

// TestRunTANEStreamed reads the one-pass CSV stream with -algo tane: the
// cover must equal the materialised run's, -keys included on the plain
// run only.
func TestRunTANEStreamed(t *testing.T) {
	csv := paperCSV(t)
	run := func(cfg config) string {
		t.Helper()
		out, err := capture(t, func() error { return cfg.run(context.Background()) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(config{algo: "tane", timeout: time.Minute, useNames: true, args: []string{csv}})
	if got := run(config{algo: "tane", timeout: time.Minute, useNames: true, stream: true, args: []string{csv}}); got != plain {
		t.Errorf("-stream output differs:\n got %s\nwant %s", got, plain)
	}
	if got := run(config{algo: "tane", timeout: time.Minute, useNames: true, showKeys: true, args: []string{csv}}); !strings.Contains(got, "6 minimal candidate keys") {
		t.Errorf("-keys with tane:\n%s", got)
	}
}

// TestRunMinerOnlyFlags: a flag that applies to other miners only is an
// error, never silently ignored — before any input is read.
func TestRunMinerOnlyFlags(t *testing.T) {
	for _, cfg := range []config{
		{algo: "depminer", epsilon: 0.1},
		{algo: "fastfds", maxLHS: 2},
		{algo: "depminer2", partBytes: 1},
		{algo: "tane", armstrong: "auto"},
		{algo: "tane", armstrong: "real"},
		{algo: "tane", maxAgreeBytes: 1},
		{algo: "tane", spillDir: "d"},
	} {
		cfg.timeout, cfg.args = time.Minute, []string{"/nonexistent.csv"}
		if err := cfg.run(context.Background()); err == nil || strings.Contains(err.Error(), "nonexistent") {
			t.Errorf("%+v: err = %v, want a flag error", cfg, err)
		}
	}
	out, err := capture(t, func() error {
		cfg := config{algo: "tane", armstrong: "none", timeout: time.Minute, useNames: true}
		return cfg.run(context.Background())
	})
	if err != nil || !strings.Contains(out, "14 minimal functional dependencies") {
		t.Errorf("-armstrong none with tane: err %v, output:\n%s", err, out)
	}
}
