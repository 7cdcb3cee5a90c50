// Command loadcmp diffs two load reports (cmd/loadgen -json) on the
// metrics that matter for a serving regression: throughput and the
// p50/p95/p99/max latency percentiles, overall and per operation. It is
// the load-report sibling of scripts/benchcmp.
//
// Usage:
//
//	go run ./cmd/loadgen -json > old.json
//	... apply the change ...
//	go run ./cmd/loadgen -json > new.json
//	go run ./scripts/loadcmp old.json new.json
//
// Latency deltas are reported so that positive percentages mean "got
// worse" on both axes: latency up is a regression, throughput down is a
// regression. With -json the comparison is emitted machine-readable.
// Exit status is 0 either way — the comparison informs, thresholds are
// the caller's policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// latency mirrors cmd/loadgen's latency_ms object.
type latency struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// loadReport is the subset of the cmd/loadgen -json report loadcmp reads;
// unknown fields are ignored, so the report can grow without breaking
// old comparisons.
type loadReport struct {
	Addr          string   `json:"addr"`
	Concurrency   int      `json:"concurrency"`
	Mix           string   `json:"mix"`
	Requests      int64    `json:"requests"`
	Errors        int64    `json:"errors"`
	Rejected      int64    `json:"rejected"`
	Partials      int64    `json:"partials"`
	ThroughputRPS float64  `json:"throughput_rps"`
	Latency       *latency `json:"latency_ms"`
	Ops           map[string]*struct {
		Requests int64    `json:"requests"`
		Latency  *latency `json:"latency_ms"`
	} `json:"ops"`
}

// delta is one compared metric in the -json output.
type delta struct {
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// ChangePct is signed so positive means regression for every metric
	// (latency increase, throughput decrease).
	ChangePct float64 `json:"change_pct"`
}

func load(path string) (*loadReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r loadReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Latency == nil {
		return nil, fmt.Errorf("%s: not a loadgen report (no latency_ms)", path)
	}
	return &r, nil
}

// pct returns the relative change in percent, NaN when the base is zero.
func pct(oldV, newV float64) float64 {
	if oldV == 0 {
		return math.NaN()
	}
	return (newV - oldV) / oldV * 100
}

// latencyDeltas compares one latency object under a name prefix.
func latencyDeltas(prefix string, o, n *latency) []delta {
	if o == nil || n == nil || o.Count == 0 || n.Count == 0 {
		return nil
	}
	return []delta{
		{prefix + "p50_ms", o.P50, n.P50, pct(o.P50, n.P50)},
		{prefix + "p95_ms", o.P95, n.P95, pct(o.P95, n.P95)},
		{prefix + "p99_ms", o.P99, n.P99, pct(o.P99, n.P99)},
		{prefix + "max_ms", o.Max, n.Max, pct(o.Max, n.Max)},
	}
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the comparison as JSON")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: loadcmp [-json] old.json new.json")
		os.Exit(1)
	}
	oldR, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadcmp: %v\n", err)
		os.Exit(1)
	}
	newR, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadcmp: %v\n", err)
		os.Exit(1)
	}

	deltas := []delta{
		// Throughput is negated into "positive = regression" space.
		{"throughput_rps", oldR.ThroughputRPS, newR.ThroughputRPS,
			pct(oldR.ThroughputRPS, newR.ThroughputRPS) * -1},
	}
	deltas = append(deltas, latencyDeltas("", oldR.Latency, newR.Latency)...)
	ops := make([]string, 0, len(oldR.Ops))
	for op := range oldR.Ops {
		if _, ok := newR.Ops[op]; ok {
			ops = append(ops, op)
		}
	}
	sort.Strings(ops)
	for _, op := range ops {
		deltas = append(deltas, latencyDeltas(op+".", oldR.Ops[op].Latency, newR.Ops[op].Latency)...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"old":    map[string]any{"requests": oldR.Requests, "errors": oldR.Errors, "mix": oldR.Mix, "concurrency": oldR.Concurrency},
			"new":    map[string]any{"requests": newR.Requests, "errors": newR.Errors, "mix": newR.Mix, "concurrency": newR.Concurrency},
			"deltas": deltas,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "loadcmp: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if oldR.Mix != newR.Mix || oldR.Concurrency != newR.Concurrency {
		fmt.Printf("note: configs differ (old: %q x%d, new: %q x%d) — deltas compare different workloads\n",
			oldR.Mix, oldR.Concurrency, newR.Mix, newR.Concurrency)
	}
	fmt.Printf("%-14s %12s %12s %10s\n", "metric", "old", "new", "change")
	for _, d := range deltas {
		change := "n/a"
		if !math.IsNaN(d.ChangePct) {
			sign := ""
			if d.ChangePct > 0 {
				sign = "+"
			}
			change = fmt.Sprintf("%s%.1f%%", sign, d.ChangePct)
		}
		fmt.Printf("%-14s %12.2f %12.2f %10s\n", d.Metric, d.Old, d.New, change)
	}
	fmt.Printf("requests %d → %d, errors %d → %d, rejected %d → %d, partial %d → %d\n",
		oldR.Requests, newR.Requests, oldR.Errors, newR.Errors,
		oldR.Rejected, newR.Rejected, oldR.Partials, newR.Partials)
}
