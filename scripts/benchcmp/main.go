// Command benchcmp compares two `go test -bench` outputs benchstat-style:
// per benchmark and metric it reports the median of each side and the
// relative change. Use it to keep before/after records honest — same
// machine, same -benchtime, several -count repetitions:
//
//	go test -run xxx -bench Hotpath -benchtime 2s -count 5 . > old.txt
//	... apply the change ...
//	go test -run xxx -bench Hotpath -benchtime 2s -count 5 . > new.txt
//	go run ./scripts/benchcmp old.txt new.txt
//
// With -json the comparison is emitted as a machine-readable record. The
// recorded end-to-end benchmark is cmd/dmbench, declared in BENCHMARK.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metrics is the reporting order; other units are carried through after
// these.
var metrics = []string{"ns/op", "B/op", "allocs/op"}

// parse reads a -bench output file into name → unit → samples.
func parse(path string) (map[string]map[string][]float64, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if out[name] == nil {
			out[name] = make(map[string][]float64)
			order = append(order, name)
		}
		// fields[1] is the iteration count; then (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			out[name][unit] = append(out[name][unit], v)
		}
	}
	return out, order, sc.Err()
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Delta is one benchmark metric's before/after medians.
type Delta struct {
	Old      float64 `json:"old"`
	New      float64 `json:"new"`
	DeltaPct float64 `json:"delta_pct"`
	Samples  int     `json:"samples"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the comparison as JSON")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-json] old.txt new.txt")
		os.Exit(2)
	}
	oldB, order, err := parse(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	newB, newOrder, err := parse(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	for _, n := range newOrder {
		if _, ok := oldB[n]; !ok {
			order = append(order, n)
		}
	}

	report := make(map[string]map[string]Delta)
	for _, name := range order {
		o, n := oldB[name], newB[name]
		if o == nil || n == nil {
			continue
		}
		units := make(map[string]Delta)
		for _, unit := range metrics {
			ov, nv := o[unit], n[unit]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			pct := 0.0
			if om != 0 {
				pct = (nm - om) / om * 100
			}
			units[unit] = Delta{Old: om, New: nm, DeltaPct: pct, Samples: min(len(ov), len(nv))}
		}
		if len(units) > 0 {
			report[name] = units
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("%-36s %-10s %14s %14s %9s\n", "benchmark", "metric", "old(median)", "new(median)", "delta")
	for _, name := range order {
		units, ok := report[name]
		if !ok {
			continue
		}
		for _, unit := range metrics {
			d, ok := units[unit]
			if !ok {
				continue
			}
			fmt.Printf("%-36s %-10s %14.0f %14.0f %+8.1f%%\n",
				strings.TrimPrefix(name, "Benchmark"), unit, d.Old, d.New, d.DeltaPct)
		}
	}
}
