package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"testing"
)

// TestDisabledTelemetryAllocs pins that events and spans below the
// logger's level build nothing: no attribute slice, no logger.
func TestDisabledTelemetryAllocs(t *testing.T) {
	info, err := NewLogger(io.Discard, Config{Level: "info"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithAttrs(context.Background(),
		slog.String(AttrKeyRequestID, "rid"), slog.String("dataset", "d1"))
	for name, base := range map[string]*slog.Logger{"nop": Nop(), "info": info} {
		for _, c := range []struct {
			op string
			fn func()
		}{
			{"Event/0", func() { Event(ctx, base, "e") }},
			{"Event/3", func() {
				Event(ctx, base, "e", slog.String("k", "v"), slog.Int("n", 7), slog.Duration("d", 5))
			}},
			{"StartSpan+End", func() {
				StartSpan(ctx, base, "s", slog.Int("shard", 1)).End(slog.String("mode", "local"))
			}},
		} {
			if n := testing.AllocsPerRun(100, c.fn); n != 0 {
				t.Errorf("%s %s: %v allocs per call, want 0", name, c.op, n)
			}
		}
	}
}

// TestSpanAndEventLogged checks the enabled path: the context's
// attributes, the call's attributes and the span's duration all reach
// the line.
func TestSpanAndEventLogged(t *testing.T) {
	var buf strings.Builder
	log, err := NewLogger(&buf, Config{Level: "debug"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithAttrs(context.Background(), slog.String(AttrKeyRequestID, "rid-7"))
	Event(ctx, log, "phases", slog.Int("n", 3))
	StartSpan(ctx, log, "shard", slog.Int("shard", 1)).End(slog.String("mode", "local"))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, want := range [][]string{
		{"msg=phases", "request_id=rid-7", "n=3"},
		{"msg=span", "request_id=rid-7", "shard=1", "span=shard", "duration_ms=", "mode=local"},
	} {
		for _, w := range want {
			if !strings.Contains(lines[i], w) {
				t.Errorf("line %d missing %q: %s", i, w, lines[i])
			}
		}
	}
}
