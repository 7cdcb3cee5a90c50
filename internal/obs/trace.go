package obs

import (
	"context"
	"log/slog"
	"slices"
	"time"
)

// The tracing pillar: spans are structured log events with durations,
// not wire-format traces — depminerd has no collector dependency, and a
// fleet's spans join by request id (the middleware propagates it), so
// `grep request_id=<id>` across coordinator and worker logs reconstructs
// the distributed timeline the way a trace viewer would.

// Span measures one named section of work. End logs the event; a Span
// is single-use and not safe for concurrent End calls. The nil Span is
// what StartSpan returns when debug logging is off: its End does nothing.
type Span struct {
	log   *slog.Logger
	name  string
	start time.Time
}

// StartSpan opens a span named name. The event is logged at debug level
// on End, carrying the context's attributes (request id and friends),
// the given attrs, and the measured duration. With debug logging off it
// returns nil and builds nothing.
func StartSpan(ctx context.Context, base *slog.Logger, name string, attrs ...slog.Attr) *Span {
	if base == nil || !base.Enabled(ctx, slog.LevelDebug) {
		return nil
	}
	log := Logger(ctx, base)
	if len(attrs) > 0 {
		// A copy, so the caller's variadic array never escapes: a
		// disabled span then allocates nothing.
		log = slog.New(log.Handler().WithAttrs(slices.Clone(attrs)))
	}
	return &Span{log: log, name: name, start: time.Now()}
}

// End closes the span, logging its duration plus any extra attributes
// measured along the way (byte counts, set counts).
func (s *Span) End(extra ...slog.Attr) {
	if s == nil {
		return
	}
	attrs := append([]slog.Attr{
		slog.String("span", s.name),
		slog.Float64("duration_ms", float64(time.Since(s.start))/float64(time.Millisecond)),
	}, extra...)
	s.log.LogAttrs(context.Background(), slog.LevelDebug, "span", attrs...)
}

// Event logs a one-shot structured event at debug level with the
// context's attributes attached — the span form for durations that were
// measured elsewhere (e.g. the per-phase timings in Result.Stats). With
// debug logging off it builds nothing.
func Event(ctx context.Context, base *slog.Logger, msg string, attrs ...slog.Attr) {
	if base == nil || !base.Enabled(ctx, slog.LevelDebug) {
		return
	}
	Logger(ctx, base).LogAttrs(ctx, slog.LevelDebug, msg, attrs...)
}
