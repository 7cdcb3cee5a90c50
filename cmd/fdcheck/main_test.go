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
)

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

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckAllHold(t *testing.T) {
	csv := write(t, "d.csv", "a,b,c\n1,x,p\n2,x,p\n3,y,q\n")
	rules := write(t, "r.txt", "# rules\na -> b\na -> c\nb -> c\n")
	out, err := capture(t, func() error {
		return run(context.Background(), rules, false, true, time.Minute, 0, []string{csv})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3/3 rules hold") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "via ") {
		t.Errorf("-explain produced no derivations:\n%s", out)
	}
}

func TestCheckViolationWitness(t *testing.T) {
	// b -> a fails: tuples 1 and 2 share b=x but differ on a.
	csv := write(t, "d.csv", "a,b\n1,x\n2,x\n")
	rules := write(t, "r.txt", "b -> a\n")
	out, err := capture(t, func() error {
		return run(context.Background(), rules, false, false, time.Minute, 0, []string{csv})
	})
	if err == nil || !strings.Contains(err.Error(), "violated") {
		t.Errorf("err = %v, want rules-violated sentinel", err)
	}
	if !strings.Contains(out, "FAIL  b → a") {
		t.Errorf("output:\n%s", out)
	}
	if !strings.Contains(out, "tuples 1 and 2 agree on the LHS") {
		t.Errorf("witness missing:\n%s", out)
	}
}

// TestCheckViolationNULValues: values containing NUL bytes must not make
// tuples that differ on the LHS look like a witness. Tuples 1 and 2 differ
// on both A and B; the only violating pair is 3 and 4.
func TestCheckViolationNULValues(t *testing.T) {
	csv := write(t, "d.csv", "A,B,C\na\x00,b,1\na,\x00b,2\nx,y,1\nx,y,2\n")
	rules := write(t, "r.txt", "A,B -> C\n")
	out, err := capture(t, func() error {
		return run(context.Background(), rules, false, false, time.Minute, 0, []string{csv})
	})
	if err == nil || !strings.Contains(err.Error(), "violated") {
		t.Errorf("err = %v, want rules-violated sentinel", err)
	}
	if !strings.Contains(out, "tuples 3 and 4 agree on the LHS") {
		t.Errorf("wrong witness:\n%s", out)
	}
}

func TestCheckErrors(t *testing.T) {
	csv := write(t, "d.csv", "a,b\n1,x\n")
	if err := run(context.Background(), "", false, false, time.Minute, 0, []string{csv}); err == nil {
		t.Error("missing -fds accepted")
	}
	if err := run(context.Background(), csv, false, false, time.Minute, 0, nil); err == nil {
		t.Error("missing csv accepted")
	}
	bad := write(t, "bad.txt", "not a rule\n")
	if _, err := capture(t, func() error {
		return run(context.Background(), bad, false, false, time.Minute, 0, []string{csv})
	}); err == nil {
		t.Error("unparseable rules accepted")
	}
	unknown := write(t, "u.txt", "z -> a\n")
	if _, err := capture(t, func() error {
		return run(context.Background(), unknown, false, false, time.Minute, 0, []string{csv})
	}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestFindViolation(t *testing.T) {
	r, err := depminer.NewRelation([]string{"a", "b"},
		[][]string{{"1", "x"}, {"2", "y"}, {"1", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	rule, err := depminer.ParseFD("a -> b", r.Names())
	if err != nil {
		t.Fatal(err)
	}
	ti, tj := r.Violation(rule.LHS, rule.RHS)
	if ti != 0 || tj != 2 {
		t.Errorf("witness = (%d,%d), want (0,2)", ti, tj)
	}
	holds, err := depminer.ParseFD("b -> a", r.Names())
	if err != nil {
		t.Fatal(err)
	}
	if ti, tj := r.Violation(holds.LHS, holds.RHS); ti != -1 || tj != -1 {
		t.Errorf("witness for holding rule = (%d,%d)", ti, tj)
	}
}
