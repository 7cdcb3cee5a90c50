package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestAttrConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		attr Attr
		kind Kind
		str  string
	}{
		{String("s", "v"), KindString, "v"},
		{Int("i", 7), KindInt64, "7"},
		{Int64("i64", -12), KindInt64, "-12"},
		{Float64("f", 1.5), KindFloat64, "1.5"},
		{Bool("b", true), KindBool, "true"},
		{Bool("b", false), KindBool, "false"},
		{Duration("d", 250*time.Millisecond), KindDuration, "250ms"},
	}
	for _, c := range cases {
		if c.attr.Kind() != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.attr.Key(), c.attr.Kind(), c.kind)
		}
		if got := c.attr.AsString(); got != c.str {
			t.Errorf("%s: AsString = %q, want %q", c.attr.Key(), got, c.str)
		}
	}
	if got := Int64("i", 42).AsInt64(); got != 42 {
		t.Errorf("AsInt64 = %d, want 42", got)
	}
	if got := Float64("f", 2.25).AsFloat64(); got != 2.25 {
		t.Errorf("AsFloat64 = %v, want 2.25", got)
	}
	if !Bool("b", true).AsBool() || Bool("b", false).AsBool() {
		t.Error("AsBool round-trip broken")
	}
	if got := Duration("d", time.Second).AsDuration(); got != time.Second {
		t.Errorf("AsDuration = %v, want 1s", got)
	}
}

func TestSetSortedDedup(t *testing.T) {
	s := NewSet(String("b", "1"), String("a", "2"), String("b", "3"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (last-wins dedup)", s.Len())
	}
	keys := s.Keys()
	if keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v, want sorted [a b]", keys)
	}
	b, ok := s.Get("b")
	if !ok || b.AsString() != "3" {
		t.Fatalf("Get(b) = %v %v, want last value 3", b, ok)
	}
	if s.Has("c") {
		t.Error("Has(c) = true for absent key")
	}
}

func TestSetMergeImmutable(t *testing.T) {
	base := NewSet(String("a", "1"))
	merged := base.Merge(String("a", "override"), String("z", "new"))
	if got, _ := base.Get("a"); got.AsString() != "1" {
		t.Errorf("Merge mutated receiver: a = %q", got.AsString())
	}
	if base.Len() != 1 {
		t.Errorf("Merge mutated receiver length: %d", base.Len())
	}
	if got, _ := merged.Get("a"); got.AsString() != "override" {
		t.Errorf("merged a = %q, want override", got.AsString())
	}
	if !merged.Has("z") || merged.Len() != 2 {
		t.Errorf("merged = %v, want {a, z}", merged.Keys())
	}

	other := NewSet(Int("n", 9))
	both := merged.MergeSet(other)
	if both.Len() != 3 || !both.Has("n") {
		t.Errorf("MergeSet = %v, want {a, n, z}", both.Keys())
	}
}

func TestSetRangeEarlyStop(t *testing.T) {
	s := NewSet(String("a", "1"), String("b", "2"), String("c", "3"))
	var seen []string
	s.Range(func(a Attr) bool {
		seen = append(seen, a.Key())
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != "a" || seen[1] != "b" {
		t.Errorf("Range visited %v, want [a b]", seen)
	}
}

func TestContextAttrs(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Error("RequestID on bare context should be empty")
	}
	ctx = ContextWithAttrs(ctx, String(AttrKeyRequestID, "abc123"), String("dataset", "d1"))
	if got := RequestID(ctx); got != "abc123" {
		t.Errorf("RequestID = %q, want abc123", got)
	}
	// Nested calls accumulate.
	ctx2 := ContextWithAttrs(ctx, Int("shard", 3))
	set := ContextAttrs(ctx2)
	if set.Len() != 3 {
		t.Fatalf("nested attrs Len = %d, want 3 (%v)", set.Len(), set.Keys())
	}
	// The parent context is untouched.
	if ContextAttrs(ctx).Has("shard") {
		t.Error("child attrs leaked into parent context")
	}
	// ContextWithSet replaces wholesale — the async-job bridge.
	detached := ContextWithSet(context.Background(), set)
	if RequestID(detached) != "abc123" {
		t.Error("ContextWithSet lost request id")
	}
}

func TestLoggerMergesContextAttrs(t *testing.T) {
	var buf strings.Builder
	log, err := NewLogger(&buf, Config{Level: "debug", Format: "text"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithAttrs(context.Background(), String(AttrKeyRequestID, "rid-1"))
	Logger(ctx, log).Info("hello", "extra", 1)
	out := buf.String()
	if !strings.Contains(out, "request_id=rid-1") {
		t.Errorf("log line missing request id: %q", out)
	}
	if !strings.Contains(out, "extra=1") {
		t.Errorf("log line missing call-site attr: %q", out)
	}
	// Nil base must not panic and must stay silent.
	Logger(ctx, nil).Info("dropped")
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "warn": "WARN", "error": "ERROR", "WARN": "WARN",
	} {
		lv, err := ParseLevel(in)
		if err != nil || lv.String() != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %s", in, lv, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage level")
	}
}

func TestConfigLayer(t *testing.T) {
	got := Config{Level: "debug"}.Layer(Config{Level: "info", Format: "json"})
	if got.Level != "debug" || got.Format != "json" {
		t.Errorf("Layer = %+v, want level=debug format=json", got)
	}
	if _, err := NewLogger(&strings.Builder{}, Config{Format: "xml"}); err == nil {
		t.Error("NewLogger accepted bad format")
	}
}

func TestBuildNeverEmpty(t *testing.T) {
	b := Build()
	if b.Version == "" || b.Revision == "" || b.GoVersion == "" {
		t.Errorf("Build() has empty fields: %+v", b)
	}
}
