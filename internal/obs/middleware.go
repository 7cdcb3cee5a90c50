package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/wire"
)

// HTTPMetrics are the native instruments the middleware records into.
type HTTPMetrics struct {
	// Requests counts finished requests by route pattern, method, and
	// status code.
	Requests *CounterVec
	// Duration is the request-latency histogram by route pattern.
	Duration *HistogramVec
	// InFlight is the number of requests currently being served.
	InFlight *Gauge
	// Panics counts handler panics contained into 500s.
	Panics *Counter
}

// NewHTTPMetrics registers the middleware's instrument set on r under
// the given metric-name prefix (e.g. "depminerd").
func NewHTTPMetrics(r *Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: r.CounterVec(prefix+"_http_requests_total",
			"HTTP requests served, by route pattern, method, and status code.",
			"route", "method", "code"),
		Duration: r.HistogramVec(prefix+"_http_request_duration_seconds",
			"HTTP request latency by route pattern.", nil, "route"),
		InFlight: r.Gauge(prefix+"_http_in_flight_requests",
			"HTTP requests currently being served."),
		Panics: r.Counter(prefix+"_http_panics_total",
			"Handler panics contained by the middleware into 500 responses."),
	}
}

// MiddlewareConfig configures Middleware. Zero-value fields disable the
// corresponding pillar: nil Logger silences access logs, nil Metrics
// skips recording.
type MiddlewareConfig struct {
	Logger  *slog.Logger
	Metrics *HTTPMetrics
}

// Middleware wraps next with the request-scoped observability stack:
//
//  1. request id: adopt the RequestIDHeader value (generating one when
//     absent or malformed), echo it on the response, and seed the
//     context's attribute set with it so every log line joins;
//  2. panic containment: a panicking handler is logged with its stack
//     and answered with a plain 500 when nothing has been written —
//     http.ErrAbortHandler passes through untouched, because handlers
//     use it deliberately to kill a corrupted stream;
//  3. metrics: in-flight gauge, request counter, and latency histogram
//     keyed by the mux route pattern (bounded cardinality);
//  4. access log: one structured line per request with method, route,
//     status, bytes, and duration. Successful requests log at Debug —
//     at thousands of requests per second a per-request Info line costs
//     double-digit throughput, so the default Info level pays nothing
//     on the happy path. Client errors (4xx) log at Info, server
//     errors (5xx) at Warn: failures are always visible.
func Middleware(cfg MiddlewareConfig, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		w.Header().Set(wire.RequestIDHeader, id)
		ctx := ContextWithAttrs(r.Context(), slog.String(AttrKeyRequestID, id))
		r = r.WithContext(ctx)

		if cfg.Metrics != nil {
			cfg.Metrics.InFlight.Inc()
		}
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()

		defer func() {
			p := recover()
			if p == http.ErrAbortHandler {
				// A deliberate connection abort (e.g. a worker killing a
				// corrupted shard stream) — not a contained failure.
				if cfg.Metrics != nil {
					cfg.Metrics.InFlight.Dec()
				}
				panic(p)
			}
			if p != nil {
				if cfg.Metrics != nil {
					cfg.Metrics.Panics.Inc()
				}
				Logger(ctx, cfg.Logger).Error("http handler panic",
					slog.Any("panic", p),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("stack", string(debug.Stack())))
				if !rec.wrote {
					http.Error(rec, "internal server error", http.StatusInternalServerError)
				}
			}
			elapsed := time.Since(start)
			route := routePattern(r)
			if cfg.Metrics != nil {
				cfg.Metrics.InFlight.Dec()
				cfg.Metrics.Requests.With(route, r.Method, strconv.Itoa(rec.status())).Inc()
				cfg.Metrics.Duration.With(route).Observe(elapsed.Seconds())
			}
			lvl := slog.LevelDebug
			switch {
			case rec.status() >= 500:
				lvl = slog.LevelWarn
			case rec.status() >= 400:
				lvl = slog.LevelInfo
			}
			if cfg.Logger != nil && cfg.Logger.Enabled(ctx, lvl) {
				Logger(ctx, cfg.Logger).Log(ctx, lvl, "http request",
					slog.String("method", r.Method),
					slog.String("route", route),
					slog.String("path", r.URL.Path),
					slog.Int("status", rec.status()),
					slog.Int64("bytes", rec.bytes),
					slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
					slog.String("remote", r.RemoteAddr))
			}
		}()

		next.ServeHTTP(rec, r)
	})
}

// requestID adopts the incoming header value when it is usable, and
// mints a fresh id otherwise.
func requestID(r *http.Request) string {
	if v := r.Header.Get(wire.RequestIDHeader); usableRequestID(v) {
		return v
	}
	return NewRequestID()
}

// usableRequestID bounds adopted ids: non-empty, short enough not to be
// a log-injection vector, printable ASCII.
func usableRequestID(v string) bool {
	if v == "" || len(v) > 128 {
		return false
	}
	for i := 0; i < len(v); i++ {
		if v[i] <= ' ' || v[i] > '~' {
			return false
		}
	}
	return true
}

// NewRequestID mints a 16-hex-char random id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; degrade to a time-based id
		// rather than refusing to serve.
		return fmt.Sprintf("t-%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// routePattern returns the bounded-cardinality route label: the mux
// pattern that matched (sans method), or "unmatched" for 404s — never
// the raw URL path, which would explode the label space.
func routePattern(r *http.Request) string {
	p := r.Pattern
	if p == "" {
		return "unmatched"
	}
	if _, rest, ok := strings.Cut(p, " "); ok {
		return rest
	}
	return p
}

// statusRecorder captures status and size while passing everything else
// through — including Flush and trailer writes, which the shard stream
// endpoint depends on.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
	wrote bool
}

func (s *statusRecorder) WriteHeader(code int) {
	if !s.wrote {
		s.code = code
		s.wrote = true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	if !s.wrote {
		s.code = http.StatusOK
		s.wrote = true
	}
	n, err := s.ResponseWriter.Write(p)
	s.bytes += int64(n)
	return n, err
}

func (s *statusRecorder) status() int {
	if !s.wrote {
		return http.StatusOK
	}
	return s.code
}

// Flush forwards to the underlying writer so streamed responses keep
// streaming through the middleware.
func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the native writer.
func (s *statusRecorder) Unwrap() http.ResponseWriter { return s.ResponseWriter }
