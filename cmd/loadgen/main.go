// Command loadgen is a closed-loop load generator for depminerd: a pool
// of workers, each running one request at a time through the repro/client
// SDK, drawing operations from a weighted mix until the duration elapses.
// It reports throughput, an exact-sample latency histogram (p50/p95/p99),
// and outcome counters overall and per operation, plus the server's own
// /v1/stats — enough to compare two runs with scripts/loadcmp.
//
// Usage:
//
//	depminerd -addr 127.0.0.1:8080 &
//	go run ./cmd/loadgen -addr http://127.0.0.1:8080 -duration 30s -concurrency 16 \
//	    -mix hit=4,cold=2,append=1,inc=1,async=1 -json > load.json
//
// Operations:
//
//	hit     discover on a warmed static dataset (result-cache hit path)
//	cold    TANE discover with a per-request epsilon, so every request
//	        keys a fresh cache entry and genuinely runs the pipeline
//	async   forced-async depminer2 discover: submit a job, poll it done
//	append  append one generated row to a dedicated dataset (invalidates
//	        its cache entries; never retried — appends aren't idempotent)
//	inc     incremental re-derivation on the append dataset, racing the
//	        appends that keep invalidating it
//	shard   depminer discover on the append dataset: on a coordinator
//	        this fans the agree-set phase out across the worker fleet
//	        (the appends keep changing the fingerprint, so workers see
//	        404 → dataset push → recompute, and a saturated or full
//	        worker degrades to the coordinator's local fallback); on a
//	        single-node server it is a plain cold depminer discover
//
// Outcomes are the saturation contract's three classes plus a catch-all:
// ok (complete result), partial (guard-governed 200), rejected (429 after
// the client's retries, counted separately from errors because admission
// control refusing load is the server working as designed), and errors
// (anything else — the number CI asserts is zero). Those classes count
// requests; rejected_attempts counts every 429 the server answered during
// the run, including those a retry absorbed, so it matches the server's
// rejection counter.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/wire"
)

// config carries the resolved command-line configuration.
type config struct {
	addr        string
	concurrency int
	duration    time.Duration
	mix         string
	rows        int
	attrs       int
	seed        int64
	maxAttempts int
	jsonOut     bool
}

// opStats accumulates one operation's outcomes; latencies in milliseconds.
type opStats struct {
	Requests  int64     `json:"requests"`
	OK        int64     `json:"ok"`
	Partials  int64     `json:"partials"`
	Rejected  int64     `json:"rejected"`
	Errors    int64     `json:"errors"`
	latencies []float64 // guarded by the collector mutex; ok outcomes only
	Latency   *latency  `json:"latency_ms,omitempty"`
}

// latency is the exact-sample summary of a latency population.
type latency struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// report is the -json report schema. The top-level requests/errors
// fields are scalars on purpose: the CI smoke step pulls them out with
// scripts/jsonfield, which only reads one level deep.
type report struct {
	Generated   string  `json:"generated"`
	Addr        string  `json:"addr"`
	Concurrency int     `json:"concurrency"`
	Mix         string  `json:"mix"`
	Rows        int     `json:"rows"`
	Attrs       int     `json:"attrs"`
	Seed        int64   `json:"seed"`
	DurationMS  float64 `json:"duration_ms"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Rejected    int64   `json:"rejected"`
	// RejectedAttempts counts HTTP attempts answered 429 during the
	// closed loop, retried ones included; Rejected counts only requests
	// whose final outcome was a 429.
	RejectedAttempts int64               `json:"rejected_attempts"`
	Partials         int64               `json:"partials"`
	ThroughputRPS    float64             `json:"throughput_rps"`
	Latency          *latency            `json:"latency_ms"`
	Ops              map[string]*opStats `json:"ops"`
	ServerStats      *wire.StatsResponse `json:"server_stats,omitempty"`
	// ServerBuild identifies the binary that served the run, so two
	// reports are attributable to exact builds.
	ServerBuild *wire.VersionResponse `json:"server_build,omitempty"`
	// MetricsDelta is the per-series change in the server's /metrics
	// exposition across the run (after minus before, zero deltas
	// dropped) — the Prometheus view of what the load did, scraped from
	// the same registry /v1/stats reads.
	MetricsDelta map[string]float64 `json:"metrics_delta,omitempty"`
}

// collector merges worker outcomes under one mutex; workers record a
// handful of times per request, so contention is negligible next to the
// HTTP round trips.
type collector struct {
	mu  sync.Mutex
	all []float64
	ops map[string]*opStats
}

func newCollector(mix []mixEntry) *collector {
	c := &collector{ops: make(map[string]*opStats)}
	for _, m := range mix {
		c.ops[m.op] = &opStats{}
	}
	return c
}

// record files one finished request under op with the given outcome:
// "ok", "partial", "rejected", or "error".
func (c *collector) record(op, outcome string, elapsed time.Duration) {
	ms := float64(elapsed) / float64(time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.ops[op]
	st.Requests++
	switch outcome {
	case "ok":
		st.OK++
		st.latencies = append(st.latencies, ms)
		c.all = append(c.all, ms)
	case "partial":
		st.Partials++
	case "rejected":
		st.Rejected++
	default:
		st.Errors++
	}
}

// summarize computes the exact-sample percentiles of a population.
func summarize(samples []float64) *latency {
	if len(samples) == 0 {
		return &latency{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	pct := func(q float64) float64 {
		// Nearest-rank: the smallest sample ≥ q of the population.
		i := int(q*float64(len(sorted))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return &latency{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		P50:   pct(0.50),
		P95:   pct(0.95),
		P99:   pct(0.99),
		Max:   sorted[len(sorted)-1],
	}
}

// mixEntry is one weighted operation from the -mix flag.
type mixEntry struct {
	op     string
	weight int
}

var knownOps = map[string]bool{"hit": true, "cold": true, "append": true, "inc": true, "async": true, "shard": true}

// mixPresets are named mixes accepted wherever a weighted list is:
// append-heavy is the durability benchmark — appends dominate so the WAL
// group-commit path (syncs vs batched_records in the report's durable
// server stats) carries the load, with just enough discovery traffic to
// keep the cache-invalidation race honest.
// The shard preset drives a coordinator: sharded discoveries dominate,
// appends keep the fingerprint moving so the fan-out genuinely
// recomputes (and re-pushes) instead of hitting the result cache, and
// the hit traffic keeps the cached path honest alongside.
var mixPresets = map[string]string{
	"append-heavy": "append=8,inc=1,hit=1",
	"shard":        "shard=5,append=2,hit=1",
}

// parseMix parses "hit=4,cold=2,append=1" into weighted entries; a
// preset name ("append-heavy") expands to its definition first.
func parseMix(s string) ([]mixEntry, error) {
	if preset, ok := mixPresets[strings.TrimSpace(s)]; ok {
		s = preset
	}
	var out []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, w, found := strings.Cut(part, "=")
		weight := 1
		if found {
			n, err := strconv.Atoi(w)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("mix weight %q is not a non-negative integer", part)
			}
			weight = n
		}
		if !knownOps[op] {
			return nil, fmt.Errorf("unknown op %q (have hit, cold, append, inc, async, shard)", op)
		}
		if weight > 0 {
			out = append(out, mixEntry{op, weight})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("mix %q selects no operations", s)
	}
	return out, nil
}

// pick draws an op from the mix with the worker's rng.
func pick(mix []mixEntry, total int, rng *rand.Rand) string {
	n := rng.Intn(total)
	for _, m := range mix {
		if n < m.weight {
			return m.op
		}
		n -= m.weight
	}
	return mix[len(mix)-1].op
}

// run executes the whole benchmark: generate data, register datasets,
// warm the cache, drive the closed loop, and assemble the report. It is
// the unit the smoke test calls directly.
func run(ctx context.Context, cfg config) (*report, error) {
	mix, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	total := 0
	needAppend := false
	for _, m := range mix {
		total += m.weight
		if m.op == "append" || m.op == "inc" || m.op == "shard" {
			needAppend = true
		}
	}

	var rejectedAttempts atomic.Int64
	c := client.New(cfg.addr, client.WithRetryPolicy(client.RetryPolicy{
		MaxAttempts: cfg.maxAttempts,
		BaseDelay:   25 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	}), client.WithAttemptObserver(func(a client.Attempt) {
		if a.Status == http.StatusTooManyRequests {
			rejectedAttempts.Add(1)
		}
	}))
	if err := c.Health(ctx); err != nil {
		return nil, fmt.Errorf("server not healthy at %s: %w", cfg.addr, err)
	}

	// The static dataset serves hit/cold/async; the append dataset gives
	// append/inc a cache-invalidation battleground of their own.
	static, err := registerGenerated(ctx, c, "loadgen-static", cfg, 1)
	if err != nil {
		return nil, err
	}
	appendID := ""
	if needAppend {
		app, err := registerGenerated(ctx, c, "loadgen-append", cfg, 2)
		if err != nil {
			return nil, err
		}
		appendID = app
	}
	// Warm the hit path so its first request is already a cache hit.
	if _, err := c.Discover(ctx, wire.DiscoverRequest{Dataset: static}); err != nil && !errors.Is(err, client.ErrPartial) {
		return nil, fmt.Errorf("warmup discover: %w", err)
	}

	before, _ := scrapeMetrics(ctx, c)
	rejectedBefore := rejectedAttempts.Load()

	col := newCollector(mix)
	var coldSeq, appendSeq int64
	var seqMu sync.Mutex
	nextSeq := func(p *int64) int64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		*p++
		return *p
	}

	start := time.Now()
	deadline, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			for deadline.Err() == nil {
				op := pick(mix, total, rng)
				t0 := time.Now()
				outcome := execute(deadline, c, op, static, appendID, cfg, nextSeq, &coldSeq, &appendSeq, rng)
				if outcome == "canceled" {
					return // duration elapsed mid-request; don't count it
				}
				col.record(op, outcome, time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rejectedDuring := rejectedAttempts.Load() - rejectedBefore

	rep := &report{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Addr:        cfg.addr,
		Concurrency: cfg.concurrency,
		Mix:         cfg.mix,
		Rows:        cfg.rows,
		Attrs:       cfg.attrs,
		Seed:        cfg.seed,
		DurationMS:  float64(elapsed) / float64(time.Millisecond),
		Latency:     summarize(col.all),
		Ops:         col.ops,

		RejectedAttempts: rejectedDuring,
	}
	for _, st := range col.ops {
		st.Latency = summarize(st.latencies)
		rep.Requests += st.Requests
		rep.Errors += st.Errors
		rep.Rejected += st.Rejected
		rep.Partials += st.Partials
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	}
	if stats, err := c.Stats(ctx); err == nil {
		rep.ServerStats = stats
	}
	if build, err := c.Version(ctx); err == nil {
		rep.ServerBuild = build
	}
	if after, err := scrapeMetrics(ctx, c); err == nil && before != nil {
		rep.MetricsDelta = metricsDelta(before, after)
	}
	return rep, nil
}

// scrapeMetrics fetches and parses the server's /metrics exposition.
func scrapeMetrics(ctx context.Context, c *client.Client) (map[string]float64, error) {
	raw, err := c.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	series, err := obs.ParseText(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return obs.SeriesMap(series), nil
}

// metricsDelta is after minus before per series, zero deltas dropped —
// gauges that returned to rest (in-flight, running jobs) vanish, so the
// map reads as "what this run did".
func metricsDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// execute performs one operation and classifies its outcome.
func execute(ctx context.Context, c *client.Client, op, static, appendID string, cfg config,
	nextSeq func(*int64) int64, coldSeq, appendSeq *int64, rng *rand.Rand) string {
	var err error
	switch op {
	case "hit":
		_, err = c.Discover(ctx, wire.DiscoverRequest{Dataset: static})
	case "cold":
		// A unique epsilon keys a fresh cache entry per request, so the
		// TANE pipeline runs from scratch every time.
		eps := float64(nextSeq(coldSeq)) * 1e-9
		_, err = c.Discover(ctx, wire.DiscoverRequest{Dataset: static, Algorithm: "tane", Epsilon: eps})
	case "async":
		var job *wire.JobInfo
		job, err = c.DiscoverAsync(ctx, wire.DiscoverRequest{Dataset: static, Algorithm: "depminer2"})
		if err == nil && job.State != wire.JobDone {
			_, err = c.WaitJob(ctx, job.ID)
		}
	case "append":
		row := make([]string, cfg.attrs)
		n := nextSeq(appendSeq)
		for i := range row {
			// Fresh values per append keep the dataset growing without
			// colliding into rows the generator already produced.
			row[i] = fmt.Sprintf("app-%d-%d", n, i)
		}
		_, err = c.Append(ctx, appendID, [][]string{row})
	case "inc":
		_, err = c.Discover(ctx, wire.DiscoverRequest{Dataset: appendID, Algorithm: "incremental"})
	case "shard":
		// Shards is left 0 — a coordinator fans out over its default
		// topology, a single-node server just runs depminer — so the
		// preset is usable against both.
		_, err = c.Discover(ctx, wire.DiscoverRequest{Dataset: appendID, Algorithm: "depminer"})
	}
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, client.ErrPartial):
		return "partial"
	case errors.Is(err, client.ErrTooManyRequests):
		return "rejected"
	case ctx.Err() != nil:
		return "canceled"
	default:
		return "error"
	}
}

// registerGenerated registers a deterministic synthetic relation and
// returns its dataset id. Distinct salts make distinct datasets from the
// same -seed.
func registerGenerated(ctx context.Context, c *client.Client, name string, cfg config, salt uint64) (string, error) {
	r, err := datagen.Generate(datagen.Spec{
		Attrs:       cfg.attrs,
		Rows:        cfg.rows,
		Correlation: 0.3,
		Seed:        uint64(cfg.seed) + salt,
	})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		return "", err
	}
	reg, err := c.Register(ctx, name, buf.Bytes())
	if err != nil {
		return "", fmt.Errorf("register %s: %w", name, err)
	}
	return reg.ID, nil
}

// printHuman writes the terminal summary.
func printHuman(rep *report) {
	fmt.Printf("loadgen: %d requests in %.1fs against %s (%d workers, mix %s)\n",
		rep.Requests, rep.DurationMS/1000, rep.Addr, rep.Concurrency, rep.Mix)
	fmt.Printf("  throughput  %.1f req/s\n", rep.ThroughputRPS)
	fmt.Printf("  outcomes    %d ok, %d partial, %d rejected, %d errors (%d attempts answered 429)\n",
		rep.Requests-rep.Partials-rep.Rejected-rep.Errors, rep.Partials, rep.Rejected, rep.Errors, rep.RejectedAttempts)
	fmt.Printf("  latency ms  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
		rep.Latency.P50, rep.Latency.P95, rep.Latency.P99, rep.Latency.Max)
	ops := make([]string, 0, len(rep.Ops))
	for op := range rep.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		st := rep.Ops[op]
		fmt.Printf("  %-7s %6d req  p50 %8.2f  p99 %8.2f  (%d partial, %d rejected, %d errors)\n",
			op, st.Requests, st.Latency.P50, st.Latency.P99, st.Partials, st.Rejected, st.Errors)
	}
	if s := rep.ServerStats; s != nil {
		fmt.Printf("  server      jobs: %d admitted, %d rejected, peak %d/%d; cache: %d hits, %d misses\n",
			s.Jobs.Admitted, s.Jobs.Rejected, s.Jobs.PeakRunning, s.Jobs.Cap, s.Cache.Hits, s.Cache.Misses)
	}
	if b := rep.ServerBuild; b != nil {
		fmt.Printf("  build       %s (revision %s, %s)\n", b.Version, b.Revision, b.GoVersion)
	}
	if n := len(rep.MetricsDelta); n > 0 {
		fmt.Printf("  metrics     %d series moved during the run (full delta in the JSON report)\n", n)
	}
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "depminerd base URL")
	flag.IntVar(&cfg.concurrency, "concurrency", 8, "closed-loop workers (each runs one request at a time)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to generate load")
	flag.StringVar(&cfg.mix, "mix", "hit=4,cold=2,append=1,inc=1,async=1", "weighted operation mix (op=weight,...) or a preset name (append-heavy, shard)")
	flag.IntVar(&cfg.rows, "rows", 200, "rows in the generated datasets")
	flag.IntVar(&cfg.attrs, "attrs", 6, "attributes in the generated datasets")
	flag.Int64Var(&cfg.seed, "seed", 1, "deterministic dataset and mix-draw seed")
	flag.IntVar(&cfg.maxAttempts, "retries", 6, "client retry budget per request (1 disables retries)")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit the JSON report to stdout instead of the summary")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	} else {
		printHuman(rep)
	}
	if rep.Errors > 0 {
		os.Exit(2)
	}
}
