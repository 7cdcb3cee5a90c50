package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/wire"
)

// span is one timed call across a layer boundary. Spans of one op share
// Op, which is also the id of the op's root span; Parent is 0 for roots.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer hands out op and span ids and, while on, keeps spans in memory.
// Spans are recorded from the benchmark's own files only, around its
// calls into each layer; the program under test is not instrumented.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	// handlers maps an op id to the span of the coordinator handler
	// serving it, so a worker's span nests under the request that caused
	// it.
	handlers sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s.Start = float64(start.Sub(t.epoch)) / float64(time.Millisecond)
	s.End = float64(end.Sub(t.epoch)) / float64(time.Millisecond)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs f, recording it as span name under parent when tracing.
func (t *tracer) call(op, parent int64, name string, f func()) {
	if !t.on.Load() {
		f()
		return
	}
	id := t.newID()
	start := time.Now()
	f()
	t.record(span{ID: id, Parent: parent, Op: op, Name: name}, start, time.Now())
}

// requestID is the X-Depminer-Request-Id an op sends, so the server
// side of the trace can find its op.
func requestID(op int64) string { return "op-" + strconv.FormatInt(op, 10) }

func opFromRequest(r *http.Request) (int64, bool) {
	v, ok := strings.CutPrefix(r.Header.Get(wire.RequestIDHeader), "op-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	return n, err == nil
}

// handlerSpans wraps a node's handler (obs middleware included) in a
// span per request: "handler" under the op's root on the node clients
// talk to, "worker.<path>" under the coordinator's handler span on a
// shard worker. Requests without an op id (set-up traffic) pass through.
func (t *tracer) handlerSpans(h http.Handler, worker bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, ok := opFromRequest(r)
		if !ok || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.newID()
		parent, name := op, "handler"
		if worker {
			name = "worker" + strings.ReplaceAll(r.URL.Path, "/", ".")
			if p, found := t.handlers.Load(op); found {
				parent = p.(int64)
			}
		} else {
			t.handlers.Store(op, id)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(span{ID: id, Parent: parent, Op: op, Name: name}, start, time.Now())
	})
}

// byName groups the recorded spans by name.
func (t *tracer) byName() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// byOp groups the recorded spans by op.
func (t *tracer) byOp() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range t.spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// closurePct is the share of the traced ops' wall time that their root
// spans' direct children account for: what the trace attributes to a
// named layer rather than to glue between the calls.
func (t *tracer) closurePct() float64 {
	var root, covered float64
	for _, spans := range t.byOp() {
		for _, s := range spans {
			switch {
			case s.Parent == 0:
				root += s.ms()
			case s.Parent == s.Op:
				covered += s.ms()
			}
		}
	}
	return 100 * ratio(covered, root)
}

// write saves the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// meanMS is the mean duration of spans, 0 when there are none.
func meanMS(spans []span) float64 {
	sum := 0.0
	for _, s := range spans {
		sum += s.ms()
	}
	return ratio(sum, float64(len(spans)))
}
