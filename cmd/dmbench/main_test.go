package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func smokeRun(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	rep, err := run(context.Background(), config{
		workload: workload,
		seed:     1,
		seconds:  150 * time.Millisecond,
		trace:    trace,
		dir:      t.TempDir(),
		smoke:    true,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// TestWorkloadsSmoke runs every workload at smoke scale, untraced and
// traced, and checks that each reports every metric BENCHMARK.json
// lists, without a failed op or wrong cover.
func TestWorkloadsSmoke(t *testing.T) {
	// expect holds what the traced run of each workload must show about
	// the layer it exists to stress.
	expect := map[string]map[string]func(float64) bool{
		"serve-hit":    {"cache.hit_ratio": eq(1)},
		"serve-ingest": {"spill.runs_per_discovery": atLeast(1), "durable.records_per_sync": atLeast(1)},
		"serve-fleet": {
			"spill.runs_per_discovery": atLeast(1),
			"snapshot.stream_ratio":    eq(1),
			"shard.remote_ratio":       eq(1),
			"shard.pushes":             eq(0),
		},
		"tall-agree": {"agree.sweep_ms": atLeast(1e-9)},
		"wide-lhs":   {"hypergraph.transversal_ms": atLeast(1e-9)},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rep := smokeRun(t, w.name, trace)
				res := rep.result
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d problems=%v",
						trace, res.Correct, res.Attempted, res.Failed, rep.detail.Problems)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json lists %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s missing or with unit %q", trace, d.name, m.Unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
					continue
				}
				for _, name := range []string{"admission.rejected", "client.retries"} {
					if v := res.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v, want 0", name, v)
					}
				}
				for name, ok := range expect[w.name] {
					if v := res.Metrics[name].Value; !ok(v) {
						t.Errorf("%s = %v: the workload does not stress its layer", name, v)
					}
				}
			}
		})
	}
}

func eq(want float64) func(float64) bool     { return func(v float64) bool { return v == want } }
func atLeast(min float64) func(float64) bool { return func(v float64) bool { return v >= min } }

// TestTamperedReferenceFails checks the oracle: with the reference covers
// corrupted, a run must come out incorrect. One workload per oracle path:
// library covers, server responses (serve-fleet checks the same way as
// serve-hit), and the serve-ingest replay.
func TestTamperedReferenceFails(t *testing.T) {
	for _, name := range []string{"tall-agree", "serve-hit", "serve-ingest"} {
		rep, err := run(context.Background(), config{
			workload: name, seed: 1, seconds: 100 * time.Millisecond,
			dir: t.TempDir(), smoke: true, tamper: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.result.Correct || rep.result.Failed == 0 {
			t.Errorf("%s: tampered reference passed (correct=%v failed=%d)", name, rep.result.Correct, rep.result.Failed)
		}
	}
}

// TestTablesMatchBenchmarkJSON guards against drift between the Go
// tables and the BENCHMARK.json at the repository root.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the Go table %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, Go table %q %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the Go table %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, Go table %+v", kind, i, g, d)
			}
			if !validName.MatchString(d.name) || !validUnit.MatchString(d.unit) {
				t.Errorf("%s: invalid name %q or unit %q", kind, d.name, d.unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	for _, w := range workloads {
		if !validName.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: invalid name or why longer than 200 characters", w.name)
		}
	}
}
