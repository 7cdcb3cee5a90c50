// Command dmbench is the repository's benchmark: one named workload per
// invocation, from a single library Discover to a sharded depminerd
// fleet, each checked against an oracle. Run it from the repository
// root through its build script:
//
//	bash cmd/dmbench/run.sh --workload tall-agree --seed 1 --seconds 16 --trace 0
//
// The seed fixes the generated inputs. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) measures half
// its time untraced and half with spans around every layer call, and
// reports the per-layer metrics. The last line of standard output is
// the result: {"correct", "attempted", "failed", "metrics"}; the line
// before it describes the run (testbed, sample counts, problems). A
// wrong cover exits 1. README.md defines every metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 16, "measured seconds")
	trace := fs.Int("trace", 0, "1 traces half the run and reports the per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, write the spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := findWorkload(*name); !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "dmbench: want --workload (%s) --seed n --seconds s --trace 0|1\n", workloadNames())
		return 2
	}
	dir, err := os.MkdirTemp("", "dmbench-")
	if err != nil {
		fmt.Fprintf(stderr, "dmbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, config{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spans:    *spans,
		dir:      dir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "dmbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep.detail); err != nil {
		fmt.Fprintf(stderr, "dmbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(rep.result); err != nil {
		fmt.Fprintf(stderr, "dmbench: %v\n", err)
		return 1
	}
	if !rep.result.Correct {
		fmt.Fprintf(stderr, "dmbench: incorrect run: %s\n", strings.Join(rep.detail.Problems, "; "))
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is the line before the result: what ran, where, and on how many
// samples.
type detail struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Testbed  testbed `json:"testbed"`
	// SetupReps is how many set-ups setup_s is the median of.
	SetupReps int `json:"setup_reps"`
	// Samples counts the completed ops per kind behind each percentile,
	// in the untraced phase and (traced runs) the traced phase.
	Samples       map[string]int `json:"samples"`
	TracedSamples map[string]int `json:"traced_samples,omitempty"`
	// Replayed is how many mid-run reads serve-ingest's oracle checked.
	Replayed int      `json:"replayed,omitempty"`
	Problems []string `json:"problems,omitempty"`
}

type testbed struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty,omitempty"`
	// StealPct is the share of the guest's CPU ticks the hypervisor gave
	// to other guests while the untraced phase ran: a run measured under
	// heavy steal reads slow for reasons outside the program.
	StealPct float64 `json:"steal_pct"`
}

type report struct {
	detail detail
	result result
}

// run executes one workload and assembles its report.
func run(ctx context.Context, cfg config) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := newBench(cfg)
	if err := w.run(ctx, b); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.spans != "" {
		if err := b.tr.write(cfg.spans); err != nil {
			return nil, err
		}
	}

	build := obs.Build()
	rep := &report{
		detail: detail{
			Workload: cfg.workload,
			Seed:     cfg.seed,
			Seconds:  cfg.seconds.Seconds(),
			Trace:    cfg.trace,
			Testbed: testbed{
				NProc:      runtime.NumCPU(),
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				CPU:        cpuModel(),
				GoVersion:  build.GoVersion,
				Revision:   build.Revision,
				Dirty:      build.Dirty,
				StealPct:   b.stealPct,
			},
			SetupReps: len(b.setup),
			Samples:   sampleCounts(b.main),
			Replayed:  b.replayed,
			Problems:  b.problems,
		},
		result: result{
			Correct:   b.incorrect == 0,
			Attempted: b.main.attempted,
			Failed:    b.main.failed + b.late,
		},
	}
	if b.traced != nil {
		rep.detail.TracedSamples = sampleCounts(b.traced)
		rep.result.Attempted += b.traced.attempted
		rep.result.Failed += b.traced.failed
	}
	values, defs := b.endToEnd(), endToEnd
	if cfg.trace {
		values, defs = b.perLayer(), perLayer
	}
	rep.result.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		rep.result.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return rep, nil
}

// endToEnd computes the untraced run's metrics.
func (b *bench) endToEnd() map[string]float64 {
	ph := b.main
	disc := ph.lat["discover"]
	return map[string]float64{
		"setup_s":         percentile(b.setup, 0.5),
		"ops_per_s":       ratio(float64(ph.ok()), ph.wall.Seconds()),
		"discover_p50_ms": percentile(disc, 0.5),
		"discover_p90_ms": percentile(disc, 0.9),
		"live_heap_mb":    weightedPercentile(ph.heap, 0.9) / (1 << 20),
	}
}

// perLayer computes the traced run's metrics: what the workload measured
// at each layer, plus the client-side percentiles, allocation and GC
// counts of the untraced half and the trace's own validity figures.
func (b *bench) perLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for k, v := range b.layer {
		m[k] = v
	}
	ph := b.main
	m["core.alloc_mb_per_op"] = ratio(float64(ph.alloc)/(1<<20), float64(ph.attempted))
	m["core.gc_per_op"] = ratio(float64(ph.gcs), float64(ph.attempted))
	m["client.discover_p99_ms"] = percentile(ph.lat["discover"], 0.99)
	m["client.append_p50_ms"] = percentile(ph.lat["append"], 0.5)
	m["client.append_p99_ms"] = percentile(ph.lat["append"], 0.99)
	m["client.inc_p50_ms"] = percentile(ph.lat["inc"], 0.5)
	m["client.inc_p90_ms"] = percentile(ph.lat["inc"], 0.9)
	m["client.retries"] = float64(b.retries.Load())
	m["trace.closure_pct"] = b.tr.closurePct()
	untraced := percentile(ph.lat["discover"], 0.5)
	m["trace.overhead_pct"] = 100 * ratio(percentile(b.traced.lat["discover"], 0.5)-untraced, untraced)
	return m
}

func sampleCounts(ph *phase) map[string]int {
	out := make(map[string]int, len(ph.lat))
	for k, v := range ph.lat {
		out[k] = len(v)
	}
	return out
}

// cpuModel reads the CPU model name, "unknown" where the platform does
// not expose /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
