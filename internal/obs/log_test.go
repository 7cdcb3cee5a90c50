package obs

import (
	"context"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"testing"
)

// keys lists attrs' keys in order.
func keys(attrs []slog.Attr) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = a.Key
	}
	return out
}

// TestSetMergeImmutable extends one parent context from two goroutines
// at once: each child sees its own attribute, and the parent's
// attributes never change (run under -race, a child written into the
// parent's array is a reported race).
func TestSetMergeImmutable(t *testing.T) {
	// Three single extensions leave the parent's array with spare
	// capacity, the case an in-place append would corrupt.
	parent := ContextWithAttrs(context.Background(), slog.String(AttrKeyRequestID, "rid"))
	parent = ContextWithAttrs(parent, slog.String("dataset", "d1"))
	parent = ContextWithAttrs(parent, slog.String("fingerprint", "f1"))
	want := slices.Clone(ContextAttrs(parent))

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := g*1000 + i
				child := ContextAttrs(ContextWithAttrs(parent, slog.Int("shard", v)))
				if len(child) != 4 || child[3].Key != "shard" || child[3].Value.Int64() != int64(v) {
					t.Errorf("child attrs = %v, want parent's plus shard=%d", child, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := ContextAttrs(parent); !slices.EqualFunc(got, want, slog.Attr.Equal) {
		t.Errorf("parent attrs changed: %v, want %v", got, want)
	}
}

func TestContextAttrs(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Error("RequestID on bare context should be empty")
	}
	ctx = ContextWithAttrs(ctx, slog.String(AttrKeyRequestID, "abc123"), slog.String("dataset", "d1"))
	if got := RequestID(ctx); got != "abc123" {
		t.Errorf("RequestID = %q, want abc123", got)
	}
	// Nested calls accumulate in insertion order.
	ctx2 := ContextWithAttrs(ctx, slog.Int("shard", 3))
	attrs := ContextAttrs(ctx2)
	if got := keys(attrs); !slices.Equal(got, []string{AttrKeyRequestID, "dataset", "shard"}) {
		t.Fatalf("nested attrs = %v, want [request_id dataset shard]", got)
	}
	// The parent context is untouched.
	if got := keys(ContextAttrs(ctx)); len(got) != 2 {
		t.Errorf("child attrs leaked into parent context: %v", got)
	}
	// Carrying the attributes onto a detached context — the async-job
	// bridge.
	detached := ContextWithAttrs(context.Background(), attrs...)
	if RequestID(detached) != "abc123" {
		t.Error("detached context lost request id")
	}
}

func TestLoggerMergesContextAttrs(t *testing.T) {
	var buf strings.Builder
	log, err := NewLogger(&buf, Config{Level: "debug", Format: "text"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithAttrs(context.Background(), slog.String(AttrKeyRequestID, "rid-1"))
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
