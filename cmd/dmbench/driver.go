package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// spans, when set, names the file the traced run's spans are
	// written to at exit.
	spans string
	// dir holds the run's CSV inputs, data directories and spill files.
	dir string
	// smoke shrinks every input so the package test runs each workload
	// in well under a second.
	smoke bool
	// tamper corrupts one reference cover: the oracle must then fail the
	// run. Only the package test sets it.
	tamper bool
}

// bench is the state of one run: set-up times, the measured phases, the
// trace, the per-layer metrics a workload computed, and every oracle or
// trace-check failure.
type bench struct {
	cfg config
	tr  *tracer // records spans only during the traced phase

	setup []float64 // seconds per set-up repetition
	// main is the untraced measurement: the whole run, or its first half
	// when tracing. traced is the second, traced half.
	main, traced *phase

	layer map[string]float64

	retries atomic.Int64 // SDK attempts after the first, across all clients

	mu sync.Mutex
	// incorrect counts wrong covers and failed trace checks: any makes
	// the run incorrect. late counts the wrong covers found outside a
	// timed op (set-up, warm-up, the ingest replay), which no phase
	// counted as failed.
	incorrect, late int
	problems        []string // first few failure descriptions, for the detail line
	replayed        int      // reads the serve-ingest oracle replayed
	// stealPct is the share of the guest's CPU time the hypervisor gave
	// to other guests during the untraced phase; -1 when unknown.
	stealPct float64
}

func newBench(cfg config) *bench {
	return &bench{cfg: cfg, tr: newTracer(), layer: make(map[string]float64), stealPct: -1}
}

// phaseDuration is how long each measured phase runs: the whole run
// untraced, or half of it for each of the untraced and traced phases.
func (b *bench) phaseDuration() time.Duration {
	if b.cfg.trace {
		return b.cfg.seconds / 2
	}
	return b.cfg.seconds
}

// setupReps is how many times a workload repeats its set-up; setup_s is
// the median.
func (b *bench) setupReps() int {
	if b.cfg.smoke {
		return 1
	}
	return 5
}

// note keeps the first few problem descriptions; the caller holds b.mu.
func (b *bench) note(format string, args ...any) {
	if len(b.problems) < 8 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// opFailed records an op that returned an error.
func (b *bench) opFailed(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.note(format, args...)
}

// wrongCover records a cover that differs from the reference; late marks
// one found outside a timed op.
func (b *bench) wrongCover(late bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.incorrect++
	if late {
		b.late++
	}
	b.note(format, args...)
}

// checkFailed records a trace check that did not hold.
func (b *bench) checkFailed(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.incorrect++
	b.note(format, args...)
}

// halves runs the workload's measurement: once untraced for the whole
// run, or untraced and then traced for half the run each. measure runs
// one phase into ph.
func (b *bench) halves(ctx context.Context, measure func(ctx context.Context, ph *phase) error) error {
	b.main = newPhase(b.phaseDuration(), false)
	steal0, total0, ok := hostTicks()
	if err := measure(ctx, b.main); err != nil {
		return err
	}
	if steal1, total1, ok1 := hostTicks(); ok && ok1 && total1 > total0 {
		b.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if !b.cfg.trace {
		return nil
	}
	b.traced = newPhase(b.phaseDuration(), true)
	b.tr.on.Store(true)
	defer b.tr.on.Store(false)
	return measure(ctx, b.traced)
}

// op is one closed-loop operation. run performs it under the op id (the
// root span's id when tracing) and returns the check the oracle applies
// once the clock has stopped.
type op struct {
	kind string
	run  func(ctx context.Context, id int64) (check func() error, err error)
}

// opRecord is what a traced phase keeps per op, to join with the spans.
type opRecord struct {
	kind   string
	ms     float64
	failed bool
	// pipelineMS is the server's elapsed_ms for a response it computed,
	// -1 for a cached response or an op without one.
	pipelineMS float64
}

// phase collects one measured phase.
type phase struct {
	length time.Duration
	traced bool

	mu        sync.Mutex
	lat       map[string][]float64 // ok ops' latency in ms, by kind
	attempted int
	failed    int
	wall      time.Duration
	// heap counts live-heap readings taken after each op. The live heap
	// only changes at a GC, so few distinct values recur many times.
	heap  map[uint64]int
	ops   map[int64]*opRecord // traced phases only
	alloc uint64              // bytes allocated over the phase
	gcs   uint32              // GC cycles over the phase
}

func newPhase(length time.Duration, traced bool) *phase {
	ph := &phase{length: length, traced: traced, lat: make(map[string][]float64), heap: make(map[uint64]int)}
	if traced {
		ph.ops = make(map[int64]*opRecord)
	}
	return ph
}

// pipeline notes, on a traced phase, the server-side elapsed time of an
// op's response; cached says the result cache answered it, so nothing
// ran.
func (ph *phase) pipeline(id int64, elapsedMS float64, cached bool) {
	if ph.ops == nil || cached {
		return
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	rec := ph.ops[id]
	if rec == nil {
		rec = &opRecord{}
		ph.ops[id] = rec
	}
	rec.pipelineMS = elapsedMS
}

// ok returns the number of ops that completed without error.
func (ph *phase) ok() int {
	n := 0
	for _, v := range ph.lat {
		n += len(v)
	}
	return n
}

// drive runs ops on clients goroutines, each a closed loop that issues
// its next op only after the previous one returned, until next reports
// the phase is over. It adds the phase's wall time, allocation and GC
// counts to ph.
func (b *bench) drive(ctx context.Context, clients int, ph *phase, next func() (op, bool)) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			for {
				o, more := next()
				if !more {
					return
				}
				id := b.tr.newID()
				t0 := time.Now()
				check, err := o.run(ctx, id)
				t1 := time.Now()
				metrics.Read(heap)
				b.tr.record(span{ID: id, Op: id, Name: o.kind}, t0, t1)
				if err != nil {
					b.opFailed("%s op %d: %v", o.kind, id, err)
				} else if cerr := check(); cerr != nil {
					b.wrongCover(false, "%s op %d: %v", o.kind, id, cerr)
					err = cerr
				}
				ms := float64(t1.Sub(t0)) / float64(time.Millisecond)
				ph.mu.Lock()
				ph.attempted++
				if err != nil {
					ph.failed++
				} else {
					ph.lat[o.kind] = append(ph.lat[o.kind], ms)
				}
				ph.heap[heap[0].Value.Uint64()]++
				if ph.ops != nil {
					rec := ph.ops[id]
					if rec == nil {
						rec = &opRecord{pipelineMS: -1}
						ph.ops[id] = rec
					}
					rec.kind, rec.ms, rec.failed = o.kind, ms, err != nil
				}
				ph.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall += time.Since(start)
	runtime.ReadMemStats(&after)
	ph.alloc += after.TotalAlloc - before.TotalAlloc
	ph.gcs += after.NumGC - before.NumGC
}

// hostTicks reads the guest-wide CPU counters of /proc/stat: ticks
// stolen by the hypervisor, and all ticks. ok is false where the file
// is missing.
func hostTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// until returns an op source that hands out ops from pick until the
// deadline passes. pick receives a counter shared by all clients, so
// round-robin workloads spread their datasets evenly.
func until(deadline time.Time, pick func(n int64) op) func() (op, bool) {
	var n atomic.Int64
	return func() (op, bool) {
		if !time.Now().Before(deadline) {
			return op{}, false
		}
		return pick(n.Add(1) - 1), true
	}
}

// percentile is the nearest-rank percentile of samples (q in (0,1]): the
// smallest sample with at least a q share of the samples at or below it.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// weightedPercentile is percentile over values that occur counts times.
func weightedPercentile(counts map[uint64]int, q float64) float64 {
	vals := make([]uint64, 0, len(counts))
	total := 0
	for v, n := range counts {
		vals = append(vals, v)
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	rank := int(math.Ceil(q * float64(total)))
	seen := 0
	for _, v := range vals {
		seen += counts[v]
		if seen >= rank {
			return float64(v)
		}
	}
	return float64(vals[len(vals)-1])
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
