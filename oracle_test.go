package depminer

// FuzzPlan is the one differential oracle of the repository. Each input
// is a plan: a small relation plus one way to mine it — the miner, the
// worker count, the spill threshold, the source kind, incremental
// appends, the library or a server reached through the SDK (one node,
// or a coordinator with two workers and 1–3 shards), sync or forced
// async, a cold or warm result cache, a budget and at most one armed
// fault. The plan's whole result must equal a sequential oracle —
// Discover at Workers 1, in memory, over the *Relation — which is itself
// cross-checked against the other miners, TANE and, on tiny relations,
// fd.MineBrute. A faulted or budgeted plan may instead end in a governed
// partial or a typed error, never in a wrong result. Every plan that
// completes also runs the paper's metamorphic checks.
//
// A plan is written as space-separated words, for example
//
//	rel=gen:5x70:0.5:3 via=fleet shards=3 miner=depminer2 spill=1
//
// The decoder is lenient: unknown words are ignored and values are
// clamped, so every input is a valid plan, and every failure prints the
// decoded plan. Run the seed corpus with go test; fuzz it with
//
//	go test -run '^$' -fuzz '^FuzzPlan$' -fuzztime 60s .

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/guard"
	"repro/internal/leakcheck"
	"repro/internal/server"
	"repro/wire"
)

// errInjected is the error an armed fault returns.
var errInjected = errors.New("injected fault")

// plan is one decoded execution plan. The zero value mines the paper's
// example sequentially with Dep-Miner through the library.
type plan struct {
	rel       string  // paper, employees, gen:AxR:C:S, rand:S, or N:row/row/… (N attributes, one character a cell)
	miner     string  // depminer, depminer2, fastfds, tane, keys or ind
	workers   int     // Options.Workers (0 = GOMAXPROCS)
	spill     int64   // Options.MaxAgreeBytes
	source    string  // relation, csv (StreamCSV) or snapshot (OpenSnapshot; a durable server)
	inc       bool    // mine incrementally: an IncrementalMiner, or the server's "incremental"
	split     int     // rows past the first split arrive as inserts or appends (0 = none)
	via       string  // library, server or fleet
	shards    int     // fleet: shards requested
	async     bool    // server: force the async job path
	warm      bool    // server: prime the cache with the other armstrong flag, then hit it
	armstrong bool    // server: ask for the Armstrong relation
	eps       float64 // tane: approximate-dependency threshold
	partCap   int64   // tane, keys: MaxPartitionBytes
	budget    int64   // guard units; -1 = an ample budget and deadline
	fault     string  // faultinject point armed for the run
	after     int     // the fault fires from hit after+1 on
	panics    bool    // the fault panics instead of returning errInjected
	perm      int64   // seed of the metamorphic row and attribute permutations
}

var (
	planMiners  = []string{"depminer", "depminer2", "fastfds", "tane", "keys", "ind"}
	planSources = []string{"relation", "csv", "snapshot"}
	planVias    = []string{"library", "server", "fleet"}
)

// parsePlan decodes a plan, clamping every value into its range.
func parsePlan(s string) plan {
	var p plan
	num := func(v string, lo, hi int64) int64 {
		n, _ := strconv.ParseInt(v, 10, 64)
		return min(max(n, lo), hi)
	}
	for _, word := range strings.Fields(s) {
		k, v, _ := strings.Cut(word, "=")
		switch k {
		case "rel":
			p.rel = v
		case "miner":
			p.miner = v
		case "workers":
			p.workers = int(num(v, 0, 9))
		case "spill":
			p.spill = num(v, 0, 1<<40)
		case "source":
			p.source = v
		case "inc":
			p.inc = true
		case "split":
			p.split = int(num(v, 0, 1<<20))
		case "via":
			p.via = v
		case "shards":
			p.shards = int(num(v, 1, 3))
		case "async":
			p.async = true
		case "warm":
			p.warm = true
		case "armstrong":
			p.armstrong = true
		case "eps":
			f, _ := strconv.ParseFloat(v, 64)
			if f > 0 && f <= 0.5 {
				p.eps = f
			}
		case "cap":
			p.partCap = num(v, 0, 1<<20)
		case "budget":
			if v == "ample" {
				p.budget = -1
			} else {
				p.budget = num(v, 0, 1<<20)
			}
		case "fault":
			pt, n, _ := strings.Cut(v, "@")
			p.fault, p.after = pt, int(num(n, 0, 64))
		case "panic":
			p.panics = true
		case "perm":
			p.perm = num(v, 0, 1<<31)
		}
	}
	return p.normalize()
}

// normalize drops the dimensions a plan's miner or route cannot honour,
// so String renders every plan one way.
func (p plan) normalize() plan {
	if p.rel == "" {
		p.rel = "paper"
	}
	if !slices.Contains(planMiners, p.miner) {
		p.miner = "depminer"
	}
	if !slices.Contains(planSources, p.source) {
		p.source = "relation"
	}
	if !slices.Contains(planVias, p.via) {
		p.via = "library"
	}
	levelwise := p.miner == "tane" || p.miner == "keys" || p.miner == "ind"
	if levelwise {
		p.inc, p.spill = false, 0
	}
	if p.miner == "keys" || p.miner == "ind" {
		p.via = "library"
	}
	if p.miner == "ind" {
		p.workers, p.source = 0, "relation"
	}
	if p.miner != "tane" {
		p.eps = 0
	}
	if p.miner != "tane" && p.miner != "keys" {
		p.partCap = 0
	}
	if p.via == "fleet" && (p.miner == "tane" || p.inc) {
		p.via = "server"
	}
	if p.via != "fleet" {
		p.shards = 0
	} else if p.shards == 0 {
		p.shards = 1
	}
	if p.via == "library" {
		p.async, p.warm, p.armstrong = false, false, false
		if p.inc {
			p.source = "relation"
		} else {
			p.split = 0
		}
	} else if p.source == "csv" {
		p.source = "relation" // a server keeps its rows in memory or on disk
	}
	if p.miner == "tane" {
		p.armstrong = false
	}
	switch {
	case p.fault == "",
		!slices.Contains(faultinject.Points(), p.fault) &&
			!(p.via == "fleet" && slices.Contains(faultinject.ShardPoints(), p.fault)) &&
			!(p.via == "library" && p.inc && p.fault == faultinject.IncrementalInsert):
		p.fault, p.after, p.panics = "", 0, false
	case p.fault == faultinject.IncrementalInsert || slices.Contains(faultinject.ShardPoints(), p.fault):
		p.panics = false // neither inserts nor shard fetches are containment boundaries
	}
	return p
}

// String renders the plan in parsePlan's syntax, defaults omitted.
func (p plan) String() string {
	w := []string{"rel=" + p.rel, "miner=" + p.miner}
	add := func(on bool, word string, args ...any) {
		if on {
			w = append(w, fmt.Sprintf(word, args...))
		}
	}
	add(p.workers != 0, "workers=%d", p.workers)
	add(p.spill != 0, "spill=%d", p.spill)
	add(p.source != "relation", "source=%s", p.source)
	add(p.inc, "inc")
	add(p.split != 0, "split=%d", p.split)
	add(p.via != "library", "via=%s", p.via)
	add(p.shards != 0, "shards=%d", p.shards)
	add(p.async, "async")
	add(p.warm, "warm")
	add(p.armstrong, "armstrong")
	add(p.eps != 0, "eps=%g", p.eps)
	add(p.partCap != 0, "cap=%d", p.partCap)
	add(p.budget == -1, "budget=ample")
	add(p.budget > 0, "budget=%d", p.budget)
	add(p.fault != "", "fault=%s@%d", p.fault, p.after)
	add(p.panics, "panic")
	add(p.perm != 0, "perm=%d", p.perm)
	return strings.Join(w, " ")
}

// algorithm is the Dep-Miner family member the plan runs.
func (p plan) algorithm() Algorithm {
	switch p.miner {
	case "depminer2":
		return DepMiner2
	case "fastfds":
		return FastFDs
	}
	return DepMiner
}

// wireAlgorithm is the server's name for the plan's miner.
func (p plan) wireAlgorithm() string {
	if p.inc {
		return "incremental"
	}
	return p.miner
}

var employees = sync.OnceValues(func() (*Relation, error) {
	return LoadCSVFile("testdata/employees.csv", true)
})

// relation builds the plan's relation. Shapes are capped so a plan runs
// in milliseconds: Dep-Miner's levelwise transversal search is
// exponential in |R|, so a wide schema gets at most two tuples unless
// its columns are highly correlated.
func (p plan) relation(t testing.TB) *Relation {
	t.Helper()
	var r *Relation
	var err error
	switch kind, arg, _ := strings.Cut(p.rel, ":"); {
	case p.rel == "paper":
		r = PaperExample()
	case p.rel == "employees":
		r, err = employees()
	case kind == "gen":
		r, err = generated(arg)
	case kind == "rand":
		seed, _ := strconv.ParseInt(arg, 10, 64)
		r, err = random(seed)
	default:
		r, err = literal(kind, arg)
	}
	if err != nil {
		t.Fatalf("plan %s: relation: %v", p, err)
	}
	return r
}

// generated builds "AxR:C:S", a datagen relation of A attributes, R
// rows, correlation C and seed S.
func generated(arg string) (*Relation, error) {
	f := strings.Split(arg, ":")
	f = append(f, "", "", "")
	a, r, _ := strings.Cut(f[0], "x")
	attrs, _ := strconv.Atoi(a)
	rows, _ := strconv.Atoi(r)
	c, _ := strconv.ParseFloat(f[1], 64)
	seed, _ := strconv.ParseUint(f[2], 10, 64)
	attrs = min(max(attrs, 1), 70)
	c = min(max(c, 0), 1)
	limit := 2
	switch {
	case attrs <= 12:
		limit = 4000
	case attrs <= 16:
		limit = 400
	case c >= 0.9:
		limit = 64
	}
	return Generate(GenerateSpec{Attrs: attrs, Rows: min(max(rows, 0), limit), Correlation: c, Seed: seed})
}

// literal builds "N:row/row/…": N attributes, one character a cell,
// short rows padded with '0' and long ones cut.
func literal(n, body string) (*Relation, error) {
	arity, _ := strconv.Atoi(n)
	arity = min(max(arity, 1), 70)
	var rows [][]string
	if body != "" {
		for _, line := range strings.Split(body, "/") {
			row := make([]string, arity)
			for a := range row {
				row[a] = "0"
				if a < len(line) {
					row[a] = cell(line[a])
				}
			}
			rows = append(rows, row)
		}
	}
	limit := 40
	if arity > 16 {
		limit = 2
	}
	return NewRelation(columnNames(arity), rows[:min(len(rows), limit)])
}

// random builds "rand:S", the small random relation of seed S: 2–6
// attributes, 0–39 rows and domains of 1–4 values, so that values
// collide and non-trivial FDs are common.
func random(seed int64) (*Relation, error) {
	rng := rand.New(rand.NewSource(seed))
	arity := 2 + rng.Intn(5)
	rows := make([][]string, rng.Intn(40))
	for i := range rows {
		rows[i] = make([]string, arity)
		for a := range rows[i] {
			rows[i][a] = "v" + strconv.Itoa(rng.Intn(1+rng.Intn(4)))
		}
	}
	return NewRelation(columnNames(arity), rows)
}

// columnNames is c0, c1, …, c(n-1).
func columnNames(n int) []string {
	names := make([]string, n)
	for a := range names {
		names[a] = "c" + strconv.Itoa(a)
	}
	return names
}

// cell maps an input byte to a value: letters and digits stand for
// themselves, anything else for one of eight digits.
func cell(b byte) string {
	if 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' {
		return string(rune(b))
	}
	return string(rune('0' + b%8))
}

// rowsOf returns r's tuples as strings.
func rowsOf(r *Relation) [][]string {
	rows := make([][]string, r.Rows())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	return rows
}

// must returns v, or panics, failing the test, on a setup error.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// check panics, failing the test, on a setup error.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// oracle is the sequential reference a plan is compared with.
type oracle struct {
	res  *Result     // Discover at Workers 1 over the *Relation, plan's algorithm
	tane *TANEResult // DiscoverTANE at Workers 1, plan's epsilon
	keys *KeysResult // DiscoverKeys at Workers 1
	inds *INDResult  // DiscoverINDs, ind plans only
}

// newOracle computes the reference for p over r and cross-checks its
// cover against every other miner.
func newOracle(t *testing.T, p plan, r *Relation) *oracle {
	t.Helper()
	ctx := context.Background()
	var o oracle
	var err error
	if o.res, err = Discover(ctx, r, Options{Algorithm: p.algorithm(), Workers: 1}); err != nil {
		t.Fatalf("plan %s: oracle: %v", p, err)
	}
	if o.tane, err = DiscoverTANE(ctx, r, TANEOptions{Workers: 1, Epsilon: p.eps}); err != nil {
		t.Fatalf("plan %s: oracle TANE: %v", p, err)
	}
	if p.miner == "keys" {
		if o.keys, err = DiscoverKeys(ctx, r, KeysOptions{Workers: 1}); err != nil {
			t.Fatalf("plan %s: oracle keys: %v", p, err)
		}
	}
	if p.miner == "ind" {
		if o.inds, err = DiscoverINDs(ctx, []*Relation{r}, INDOptions{}); err != nil {
			t.Fatalf("plan %s: oracle INDs: %v", p, err)
		}
	}
	want := o.res.FDs
	checkCanonical(t, p, "oracle", o.res)
	for _, algo := range []Algorithm{DepMiner, DepMiner2, FastFDs} {
		if algo == p.algorithm() {
			continue
		}
		other, err := Discover(ctx, r, Options{Algorithm: algo, Workers: 1, Armstrong: ArmstrongNone})
		if err != nil {
			t.Fatalf("plan %s: cross-check %v: %v", p, algo, err)
		}
		sameCover(t, p, fmt.Sprintf("%v cover", algo), other.FDs, want)
	}
	exact := o.tane
	if p.eps != 0 {
		if exact, err = DiscoverTANE(ctx, r, TANEOptions{Workers: 1}); err != nil {
			t.Fatalf("plan %s: cross-check TANE: %v", p, err)
		}
	}
	sameCover(t, p, "TANE cover", exact.FDs, want)
	if r.Arity() <= 8 && r.Rows() <= 64 {
		sameCover(t, p, "brute-force cover", fd.MineBrute(r), want)
	}
	if ok, bad := Verify(r, want); !ok {
		t.Fatalf("plan %s: the cover holds %s, which does not hold in r", p, bad)
	}
	return &o
}

// sameCover fails unless got is want, FD for FD.
func sameCover(t *testing.T, p plan, what string, got, want Cover) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("plan %s: %s differs from the oracle's (%d FDs, want %d):\n got %v\nwant %v",
			p, what, len(got), len(want), got, want)
	}
}

// checkCanonical checks the order steps 2–4 build rather than sort: the
// cover in FD.Compare order, ag(r) and MAX(dep(r)) strictly increasing.
func checkCanonical(t *testing.T, p plan, label string, res *Result) {
	t.Helper()
	if !slices.IsSortedFunc(res.FDs, FD.Compare) {
		t.Fatalf("plan %s: %s: cover not in canonical order", p, label)
	}
	for _, f := range []AttrSetFamily{res.AgreeSets, res.MaxSets} {
		for i := 1; i < len(f); i++ {
			if f[i-1].Compare(f[i]) >= 0 {
				t.Fatalf("plan %s: %s: family not strictly increasing: %v", p, label, f.Strings())
			}
		}
	}
}

// view renders every deterministic field of a Result.
func view(res *Result) string {
	return fmt.Sprintf("couples=%d %s", res.Couples, incView(res))
}

// incView is view without the couple count, which an incremental miner
// does not keep: it starts from the maintained ag(r).
func incView(res *Result) string {
	return fmt.Sprintf("fds=%v ag=%v max=%v dfs=%d synthetic=%t armstrong=%v",
		res.FDs, res.AgreeSets, res.MaxSets, res.DFSNodes, res.ArmstrongSynthetic, res.Armstrong)
}

// harness runs one plan.
type harness struct {
	t     *testing.T
	p     plan
	r     *Relation
	o     *oracle
	fired atomic.Bool
	held  []held // results returned so far, for the no-mutation check

	evictions, recomputes int64 // a TANE plan's partition-store traffic
}

// held is a returned result and its rendering at the time it returned.
type held struct {
	label  string
	render func() string
	was    string
}

// hold records a result so the end of the plan can check that nothing
// that ran later mutated it.
func (h *harness) hold(label string, render func() string) {
	h.held = append(h.held, held{label, render, render()})
}

// arm arms the plan's fault, if any.
func (h *harness) arm() {
	if h.p.fault == "" {
		return
	}
	fail := faultinject.FailWith(errInjected)
	if h.p.panics {
		fail = faultinject.PanicWith("injected panic at " + h.p.fault)
	}
	faultinject.Set(h.p.fault, faultinject.After(h.p.after, func() error {
		h.fired.Store(true)
		return fail()
	}))
}

// budget is the plan's budget for one run.
func (h *harness) budget() *Budget {
	switch {
	case h.p.budget == -1:
		return NewBudget(Limits{Units: 1 << 40, Deadline: time.Now().Add(time.Hour)})
	case h.p.budget > 0:
		return NewBudget(Limits{Units: h.p.budget})
	}
	return nil
}

// failed classifies a run that returned err; it reports whether the
// run completed, so its result must equal the oracle's. partial is
// whether a partial result came back with err.
func (h *harness) failed(err error, partial, hasResult bool) bool {
	t, p := h.t, h.p
	t.Helper()
	if err == nil {
		if h.fired.Load() {
			t.Fatalf("plan %s: the fault fired, yet the run succeeded", p)
		}
		if partial {
			t.Fatalf("plan %s: a partial result without an error", p)
		}
		return true
	}
	switch {
	case errors.Is(err, errInjected) && h.fired.Load():
		if hasResult {
			t.Fatalf("plan %s: a result came back with the injected error", p)
		}
	case errors.Is(err, ErrPanic) && h.fired.Load():
		var pe *guard.PanicError
		if !errors.As(err, &pe) || pe.Value != "injected panic at "+p.fault || len(pe.Stack) == 0 {
			t.Fatalf("plan %s: contained panic %v lost its value or stack", p, err)
		}
		if !partial {
			t.Fatalf("plan %s: a contained panic surfaced no partial result", p)
		}
	case (errors.Is(err, ErrBudget) || errors.Is(err, ErrDeadline)) && p.budget > 0:
		if !partial {
			t.Fatalf("plan %s: a governed overrun surfaced no partial result: %v", p, err)
		}
	default:
		t.Fatalf("plan %s: untyped or unplanned error: %v", p, err)
	}
	return false
}

// partialCover checks the FDs of a governed partial: FastFDs emits a
// prefix of the cover; the levelwise search emits none, or all of it
// when the cutoff came after steps 3–4.
func (h *harness) partialCover(got Cover) {
	h.t.Helper()
	want := h.o.res.FDs
	if h.p.algorithm() == FastFDs {
		want = want[:min(len(got), len(want))]
	} else if len(got) == 0 {
		return
	}
	if !slices.Equal(got, want) {
		h.t.Fatalf("plan %s: partial cover of %d FDs is not a governed prefix: %v", h.p, len(got), got)
	}
}

// partialResult checks a governed partial Result: the cover rule,
// ag(r) a subset of the oracle's (step 1 keeps what it merged before
// the cutoff), and MAX(dep(r)) absent or whole.
func (h *harness) partialResult(res *Result) {
	h.t.Helper()
	h.partialCover(res.FDs)
	for _, s := range res.AgreeSets {
		if _, ok := slices.BinarySearchFunc(h.o.res.AgreeSets, s, AttrSet.Compare); !ok {
			h.t.Fatalf("plan %s: partial ag(r) invents %v", h.p, s)
		}
	}
	if len(res.MaxSets) != 0 && !slices.Equal(res.MaxSets, h.o.res.MaxSets) {
		h.t.Fatalf("plan %s: partial result kept a wrong MAX(dep(r)): %v", h.p, res.MaxSets.Strings())
	}
}

// open returns the plan's source over r.
func (h *harness) open(r *Relation) Source {
	t := h.t
	t.Helper()
	switch h.p.source {
	case "csv":
		var buf bytes.Buffer
		check(r.WriteCSV(&buf))
		return must(StreamCSV(&buf, true))
	case "snapshot":
		sr := must(OpenSnapshot(writeSnapshot(t, r)))
		t.Cleanup(func() { sr.Close() })
		return sr
	}
	return r
}

// writeSnapshot stores r in a fresh durable store and compacts it into a
// DMSNAP1 snapshot, returning the snapshot's path. The rows are appended
// to an empty dataset: only WAL-appended records give the dataset a tail
// to fold, and CompactAll folds exactly that tail into snapshot.snap.
func writeSnapshot(t testing.TB, r *Relation) string {
	t.Helper()
	empty := must(NewRelation(r.Names(), nil))
	dir := t.TempDir()
	store, _, err := durable.Open(durable.Options{Dir: dir, DisableFsync: true})
	check(err)
	ds := must(store.Create("snap", "snap", empty, durable.FingerprintOf(empty).Sum()))
	check(ds.Sync(must(ds.Append(rowsOf(r), r, durable.FingerprintOf(r).Sum()))))
	check(store.CompactAll())
	check(store.Close())
	return filepath.Join(dir, "datasets", "snap", "snapshot.snap")
}

// runLibrary runs the plan through the public API.
func (h *harness) runLibrary() {
	t, p, r, o := h.t, h.p, h.r, h.o
	t.Helper()
	leakcheck.Check(t)
	ctx := context.Background()
	switch p.miner {
	case "tane":
		src := h.open(r)
		h.arm()
		res, err := DiscoverTANE(ctx, src, TANEOptions{Epsilon: p.eps, Workers: p.workers, MaxPartitionBytes: p.partCap, Budget: h.budget()})
		if !h.failed(err, res != nil && res.Partial, res != nil) {
			if res != nil {
				for _, f := range res.FDs {
					if !slices.Contains(o.tane.FDs, f) {
						t.Fatalf("plan %s: TANE partial invents %s", p, f)
					}
				}
			}
			return
		}
		got := fmt.Sprintf("fds=%v nodes=%d levels=%d", res.FDs, res.LatticeNodes, res.Levels)
		if want := fmt.Sprintf("fds=%v nodes=%d levels=%d", o.tane.FDs, o.tane.LatticeNodes, o.tane.Levels); got != want {
			t.Fatalf("plan %s: TANE differs from the oracle:\n got %s\nwant %s", p, got, want)
		}
		if p.partCap > 0 && res.Stats.PeakBytes > p.partCap {
			t.Fatalf("plan %s: partition store peaked at %d B over its cap", p, res.Stats.PeakBytes)
		}
		h.evictions, h.recomputes = res.Stats.Evictions, res.Stats.Recomputes
		h.hold("TANE result", func() string { return fmt.Sprint(res.FDs, res.LatticeNodes) })
	case "keys":
		src := h.open(r)
		h.arm()
		res, err := DiscoverKeys(ctx, src, KeysOptions{Workers: p.workers, MaxPartitionBytes: p.partCap, Budget: h.budget()})
		if !h.failed(err, res != nil && res.Partial, res != nil) {
			if res != nil {
				for _, k := range res.Keys {
					if !slices.Contains(o.keys.Keys, k) {
						t.Fatalf("plan %s: keys partial invents %v", p, k)
					}
				}
			}
			return
		}
		if got, want := fmt.Sprint(res.Keys, res.LatticeNodes), fmt.Sprint(o.keys.Keys, o.keys.LatticeNodes); got != want {
			t.Fatalf("plan %s: keys differ from the oracle: got %s, want %s", p, got, want)
		}
		h.hold("keys result", func() string { return fmt.Sprint(res.Keys) })
	case "ind":
		h.arm()
		res, err := DiscoverINDs(ctx, []*Relation{r}, INDOptions{Budget: h.budget()})
		if !h.failed(err, res != nil && res.Partial, res != nil) {
			return
		}
		if got, want := fmt.Sprint(res.INDs), fmt.Sprint(o.inds.INDs); got != want {
			t.Fatalf("plan %s: INDs differ from the oracle: got %s, want %s", p, got, want)
		}
	default:
		h.runDepMiner()
	}
}

// runDepMiner runs the Dep-Miner family, batch or incremental.
func (h *harness) runDepMiner() {
	t, p, r, o := h.t, h.p, h.r, h.o
	t.Helper()
	ctx := context.Background()
	opts := Options{Algorithm: p.algorithm(), Workers: p.workers, MaxAgreeBytes: p.spill, SpillDir: t.TempDir()}
	if !p.inc {
		src := h.open(r)
		opts.Budget = h.budget()
		h.arm()
		res, err := Discover(ctx, src, opts)
		if !h.failed(err, res != nil && res.Partial, res != nil) {
			if res != nil {
				h.partialResult(res)
			}
			return
		}
		want := o.res
		if p.source == "csv" { // a CSV stream keeps no dictionaries
			if res.Armstrong != nil {
				t.Fatalf("plan %s: an Armstrong relation without dictionaries", p)
			}
			cp := *o.res
			cp.Armstrong, cp.ArmstrongSynthetic = nil, false
			want = &cp
		}
		if got, want := view(res), view(want); got != want {
			t.Fatalf("plan %s: result differs from the oracle's:\n got %s\nwant %s", p, got, want)
		}
		checkCanonical(t, p, "plan", res)
		if opts.Budget != nil && opts.Budget.Used() == 0 {
			t.Fatalf("plan %s: budget never charged", p)
		}
		h.checkSpill(res)
		h.hold("plan result", func() string { return view(res) })
		switch p.source {
		case "csv": // single-use: a second run fails outright
			if again, err := Discover(ctx, src, opts); err == nil || again != nil {
				t.Fatalf("plan %s: second run over a used-up CSV source: %v, %v", p, again, err)
			}
		case "snapshot": // without the fallback, Proposition 1 holds or fails alike
			strict := Options{Armstrong: ArmstrongRealWorld, Workers: 1}
			want, werr := Discover(ctx, r, strict)
			got, gerr := Discover(ctx, src, strict)
			if fmt.Sprint(werr) != fmt.Sprint(gerr) || werr == nil && view(got) != view(want) {
				t.Fatalf("plan %s: real-world Armstrong over the snapshot: %v, %v; over r: %v, %v", p, got, gerr, want, werr)
			}
		}
		return
	}

	// Incremental: seed with the first split rows, check that result,
	// insert the rest, check again.
	rows := rowsOf(r)
	seed := r
	if p.split > 0 {
		seed = must(NewRelation(r.Names(), rows[:p.split]))
	}
	m := must(IncrementalFromRelation(seed))
	if p.split > 0 {
		early, err := m.Discover(ctx, opts)
		if err != nil {
			t.Fatalf("plan %s: incremental discover at split: %v", p, err)
		}
		want := must(Discover(ctx, seed, Options{Algorithm: p.algorithm(), Workers: 1}))
		if got, want := incView(early), incView(want); got != want {
			t.Fatalf("plan %s: incremental result at split differs:\n got %s\nwant %s", p, got, want)
		}
		h.hold("incremental result at split", func() string { return incView(early) })
	}
	h.arm()
	for i := p.split; p.split > 0 && i < len(rows); i++ {
		if err := m.Insert(rows[i]); err != nil {
			h.failed(err, false, false)
			return
		}
	}
	opts.Budget = h.budget()
	res, err := m.Discover(ctx, opts)
	if !h.failed(err, res != nil && res.Partial, res != nil) {
		if res != nil {
			h.partialResult(res)
		}
		return
	}
	if got, want := incView(res), incView(o.res); got != want {
		t.Fatalf("plan %s: incremental result differs from the oracle's:\n got %s\nwant %s", p, got, want)
	}
	h.hold("incremental result", func() string { return incView(res) })
}

// checkSpill checks step 1's spill counters: no traffic without a
// threshold, traffic under a 1-byte one, and at one worker the same
// counters as the same run over the *Relation.
func (h *harness) checkSpill(res *Result) {
	t, p := h.t, h.p
	t.Helper()
	sp := res.Stats.Spill
	nonEmpty := slices.ContainsFunc(h.o.res.AgreeSets, func(s AttrSet) bool { return !s.IsEmpty() })
	switch {
	case p.spill == 0 || p.spill >= 1<<40:
		if sp.RunsSpilled != 0 {
			t.Fatalf("plan %s: spilled without a threshold: %+v", p, sp)
		}
	case p.spill == 1 && nonEmpty:
		if sp.RunsSpilled == 0 || sp.SpilledBytes == 0 || sp.MergedRuns == 0 {
			t.Fatalf("plan %s: a 1-byte threshold spilled nothing: %+v", p, sp)
		}
	}
	if p.workers != 1 || p.spill == 0 {
		return
	}
	ref := must(Discover(context.Background(), h.r, Options{Algorithm: p.algorithm(), Workers: 1, MaxAgreeBytes: p.spill, SpillDir: t.TempDir(), Armstrong: ArmstrongNone}))
	if ref.Stats.Spill != sp {
		t.Fatalf("plan %s: spill counters %+v, over the relation %+v", p, sp, ref.Stats.Spill)
	}
}

// startServer serves a server.Server over httptest until the test ends.
func startServer(t *testing.T, cfg server.Config) string {
	t.Helper()
	s := must(server.New(cfg))
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return ts.URL
}

// runServer runs the plan against a server through the SDK: register
// the first rows, append the rest, discover.
func (h *harness) runServer() {
	t, p, r := h.t, h.p, h.r
	t.Helper()
	ctx := context.Background()
	cfg := server.Config{SpillDir: t.TempDir()}
	if p.source == "snapshot" {
		cfg.DataDir, cfg.DisableFsync = t.TempDir(), true
	}
	if p.via == "fleet" {
		for range 2 {
			cfg.WorkerEndpoints = append(cfg.WorkerEndpoints, startServer(t, server.Config{SpillDir: t.TempDir()}))
		}
	}
	c := client.New(startServer(t, cfg), client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}),
		client.WithPollInterval(time.Millisecond))

	rows := rowsOf(r)
	var csv bytes.Buffer
	head := rows
	if p.split > 0 {
		head = rows[:p.split]
	}
	check(must(NewRelation(r.Names(), head)).WriteCSV(&csv))
	reg, err := c.Register(ctx, "plan", csv.Bytes())
	if err != nil {
		t.Fatalf("plan %s: register: %v", p, err)
	}
	fp := reg.Fingerprint
	// The rows past the split arrive in two appends.
	for lo, step := p.split, max(1, (len(rows)-p.split+1)/2); p.split > 0 && lo < len(rows); lo += step {
		hi := min(lo+step, len(rows))
		app, err := c.Append(ctx, reg.ID, rows[lo:hi])
		if err != nil || app.Appended != hi-lo || app.Rows != hi {
			t.Fatalf("plan %s: append: %+v, %v", p, app, err)
		}
		fp = app.Fingerprint
	}

	req := wire.DiscoverRequest{
		Dataset: reg.ID, Algorithm: p.wireAlgorithm(), Workers: p.workers,
		MaxAgreeBytes: p.spill, Armstrong: p.armstrong, Shards: p.shards,
		Epsilon: p.eps, MaxPartitionBytes: p.partCap, BudgetUnits: max(p.budget, 0),
	}
	discover := func(req wire.DiscoverRequest) (*wire.DiscoverResponse, error) {
		if !p.async {
			return c.Discover(ctx, req)
		}
		job, err := c.DiscoverAsync(ctx, req)
		switch {
		case err != nil:
			return nil, err
		case job.State == wire.JobRunning:
			return c.WaitJob(ctx, job.ID)
		case job.Result == nil:
			return nil, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
		}
		return job.Result, nil
	}
	if p.warm {
		prime := req
		prime.Armstrong = !req.Armstrong
		resp, err := discover(prime)
		if err != nil || resp.Cached {
			t.Fatalf("plan %s: priming discover: cached=%v err=%v", p, resp != nil && resp.Cached, err)
		}
		h.sameResponse(resp, prime, fp)
	}
	h.arm()
	resp, err := discover(req)
	partial := errors.Is(err, client.ErrPartial)
	switch {
	case err == nil:
		if h.fired.Load() && p.fault != faultinject.ShardDispatch && p.fault != faultinject.ShardStream {
			t.Fatalf("plan %s: the fault fired, yet the discovery succeeded", p)
		}
		if resp.Cached {
			t.Fatalf("plan %s: first discovery with these options was a cache hit", p)
		}
		h.sameResponse(resp, req, fp)
	case partial && (h.fired.Load() || p.budget > 0):
		if p.miner == "tane" {
			break
		}
		fds := make(Cover, 0, len(resp.FDs))
		for _, f := range resp.FDs {
			parsed, err := ParseFD(f, r.Names())
			if err != nil {
				t.Fatalf("plan %s: partial FD %q: %v", p, f, err)
			}
			fds = append(fds, parsed)
		}
		h.partialCover(fds)
	case h.fired.Load():
	default:
		t.Fatalf("plan %s: discover: %v", p, err)
	}
	if p.fault == "" && !p.warm {
		return
	}
	// The fault cleared, the same request must complete: from the cache
	// if the first one did, else afresh.
	faultinject.Reset()
	again, err := discover(req)
	if err != nil && !(p.budget > 0 && errors.Is(err, client.ErrPartial)) {
		t.Fatalf("plan %s: discover after the fault cleared: %v", p, err)
	}
	if err == nil {
		if p.warm && p.fault == "" && !again.Cached {
			t.Fatalf("plan %s: repeat discovery missed the cache", p)
		}
		h.sameResponse(again, req, fp)
	}
}

// sameResponse compares a complete discover response with the oracle.
func (h *harness) sameResponse(resp *wire.DiscoverResponse, req wire.DiscoverRequest, fp string) {
	t, p, r, o := h.t, h.p, h.r, h.o
	t.Helper()
	fds := o.res.FDs
	if p.miner == "tane" {
		fds = o.tane.FDs
	}
	names := make([]string, len(fds))
	for i, f := range fds {
		names[i] = f.Names(r.Names())
	}
	if !slices.Equal(resp.FDs, names) {
		t.Fatalf("plan %s: served cover differs from the oracle's:\n got %v\nwant %v", p, resp.FDs, names)
	}
	if resp.Partial || resp.Fingerprint != fp || resp.Rows != r.Rows() || resp.Attributes != r.Arity() {
		t.Fatalf("plan %s: response header %+v, want fingerprint %s and %d×%d", p, resp, fp, r.Rows(), r.Arity())
	}
	if p.miner == "tane" {
		if resp.LatticeNodes != o.tane.LatticeNodes {
			t.Fatalf("plan %s: served lattice has %d nodes, oracle %d", p, resp.LatticeNodes, o.tane.LatticeNodes)
		}
		return
	}
	got := fmt.Sprintf("ag=%d max=%d dfs=%d", resp.AgreeSets, resp.MaxSets, resp.DFSNodes)
	want := fmt.Sprintf("ag=%d max=%d dfs=%d", len(o.res.AgreeSets), len(o.res.MaxSets), o.res.DFSNodes)
	if !p.inc {
		got += fmt.Sprintf(" couples=%d", resp.Couples)
		want += fmt.Sprintf(" couples=%d", o.res.Couples)
	}
	if req.Armstrong {
		got += fmt.Sprintf(" synthetic=%t armstrong=%v", resp.ArmstrongSynthetic, resp.Armstrong)
		want += fmt.Sprintf(" synthetic=%t armstrong=%v", o.res.ArmstrongSynthetic, rowsOf(o.res.Armstrong))
	} else if resp.Armstrong != nil {
		t.Fatalf("plan %s: an Armstrong relation nobody asked for", p)
	}
	if got != want {
		t.Fatalf("plan %s: served result differs from the oracle's:\n got %s\nwant %s", p, got, want)
	}
	if p.via == "fleet" && !resp.Cached {
		if resp.Shards > p.shards || resp.ShardsRemote+resp.ShardsLocal != resp.Shards ||
			resp.ShardsLocal != 0 && !h.fired.Load() {
			t.Fatalf("plan %s: %d shards, %d remote, %d local", p, resp.Shards, resp.ShardsRemote, resp.ShardsLocal)
		}
	}
}

// metamorphic runs the paper's metamorphic checks on a plan that
// completed: the Armstrong relation rediscovers the cover, permuting
// and duplicating rows changes neither the cover nor ag(r), and
// permuting attributes permutes the cover.
func (h *harness) metamorphic() {
	t, p, r, o := h.t, h.p, h.r, h.o
	t.Helper()
	ctx := context.Background()
	opts := Options{Algorithm: p.algorithm(), Workers: p.workers, MaxAgreeBytes: p.spill, SpillDir: t.TempDir(), Armstrong: ArmstrongNone}
	discover := func(what string, r *Relation) *Result {
		res, err := Discover(ctx, r, opts)
		if err != nil {
			t.Fatalf("plan %s: %s: %v", p, what, err)
		}
		return res
	}
	if arm := o.res.Armstrong; arm != nil {
		sameCover(t, p, "the Armstrong relation's cover", discover("Armstrong rediscovery", arm).FDs, o.res.FDs)
	}

	rng := rand.New(rand.NewSource(p.perm))
	rows := rowsOf(r)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	if len(rows) > 0 {
		rows = append(rows, rows[rng.Intn(len(rows))])
	}
	shuffled := discover("rows permuted and duplicated", must(NewRelation(r.Names(), rows)))
	sameCover(t, p, "cover with rows permuted and duplicated", shuffled.FDs, o.res.FDs)
	if !slices.Equal(shuffled.AgreeSets, o.res.AgreeSets) {
		t.Fatalf("plan %s: ag(r) with rows permuted and duplicated: %v, want %v", p, shuffled.AgreeSets.Strings(), o.res.AgreeSets.Strings())
	}

	// Column j of the permuted relation is column pi[j] of r.
	pi := rng.Perm(r.Arity())
	to := make([]int, len(pi))
	names := make([]string, len(pi))
	for j, a := range pi {
		to[a] = j
		names[j] = r.Names()[a]
	}
	cols := rowsOf(r)
	for i, row := range cols {
		cols[i] = make([]string, len(pi))
		for j, a := range pi {
			cols[i][j] = row[a]
		}
	}
	want := make(Cover, len(o.res.FDs))
	for i, f := range o.res.FDs {
		var lhs AttrSet
		f.LHS.ForEach(func(a int) { lhs.Add(to[a]) })
		want[i] = FD{LHS: lhs, RHS: to[f.RHS]}
	}
	slices.SortFunc(want, FD.Compare)
	sameCover(t, p, "cover with attributes permuted", discover("attributes permuted", must(NewRelation(names, cols))).FDs, want)
}

// runPlan runs one plan end to end and returns its harness.
func runPlan(t *testing.T, input string) *harness {
	p := parsePlan(input)
	r := p.relation(t)
	if p.split >= r.Rows() {
		p.split = 0
	}
	if p.miner == "keys" && r.Arity() > 12 {
		// With duplicate tuples no key exists, and the key search walks
		// the whole lattice.
		p.miner = "depminer"
	}
	if p.via != "library" && r.Rows() == 0 {
		p.via, p.shards, p.async, p.warm, p.armstrong = "library", 0, false, false, false
		p = p.normalize()
	}
	t.Logf("plan %s", p)
	t.Cleanup(faultinject.Reset)
	h := &harness{t: t, p: p, r: r}
	h.o = newOracle(t, p, r)
	h.hold("oracle result", func() string { return view(h.o.res) })
	h.hold("oracle TANE result", func() string { return fmt.Sprint(h.o.tane.FDs, h.o.tane.LatticeNodes) })
	if p.via == "library" {
		h.runLibrary()
	} else {
		h.runServer()
	}
	faultinject.Reset()
	if p.fault == "" && p.budget <= 0 && !t.Failed() {
		h.metamorphic()
	}
	for _, x := range h.held {
		if now := x.render(); now != x.was {
			t.Fatalf("plan %s: %s was mutated after it returned:\n was %s\n now %s", p, x.label, x.was, now)
		}
	}
	return h
}

// runPlans runs each plan as a subtest.
func runPlans(t *testing.T, plans []string) {
	for _, s := range plans {
		t.Run(s, func(t *testing.T) { runPlan(t, s) })
	}
}

// diagonal renders format once per index i < n; a format verb takes the
// i-th value (cyclically) of the matching list, so n = lcm of the list
// lengths crosses every pair of values.
func diagonal(n int, format string, lists ...[]any) []string {
	out := make([]string, n)
	for i := range out {
		args := make([]any, len(lists))
		for j, l := range lists {
			args[j] = l[i%len(l)]
		}
		out[i] = fmt.Sprintf(format, args...)
	}
	return out
}

// upTo is 0, 1, …, n-1.
func upTo(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = i
	}
	return out
}

var (
	familyMiners = []any{"depminer", "depminer2", "fastfds"}
	workerCounts = []any{0, 2, 4, 8, 9}
	spills       = []any{0, 1}
)

// The plan tables below keep the names of the per-feature sweeps this
// oracle replaced, so that -run patterns naming them still select their
// inputs. FuzzPlan seeds its corpus with every table.

// paperPlans mine the paper's example, whose cover is known by hand,
// with every miner.
var paperPlans = []string{
	"rel=paper",
	"rel=paper miner=depminer2 workers=4",
	"rel=paper miner=fastfds workers=9",
	"rel=paper miner=tane workers=8 cap=1",
	"rel=paper miner=tane eps=0.1 workers=2 cap=4096",
	"rel=paper miner=keys workers=2 cap=1",
	"rel=paper miner=ind",
}

// goldenPlans mine testdata/employees.csv, whose cover testdata/employees.fds
// pins.
var goldenPlans = []string{
	"rel=employees workers=2 perm=1",
	"rel=employees miner=depminer2 workers=8 spill=1",
	"rel=employees miner=fastfds source=csv workers=2",
	"rel=employees miner=tane workers=4 cap=1",
	"rel=employees miner=keys workers=8",
}

func TestDifferentialPaperExample(t *testing.T)  { runPlans(t, paperPlans) }
func TestDifferentialGoldenFixture(t *testing.T) { runPlans(t, goldenPlans) }

// randomPlans mine 50 small random relations, some of 0 or 1 rows.
var randomPlans = diagonal(50, "rel=rand:%d miner=%s workers=%d spill=%d",
	upTo(50), append(slices.Clone(familyMiners), "tane"), workerCounts, spills)

func TestDifferentialRandomRelations(t *testing.T) { runPlans(t, randomPlans) }

// workerPlans run the Dep-Miner family at every worker count.
var workerPlans = slices.Concat(
	diagonal(15, "rel=paper miner=%s workers=%d", familyMiners, workerCounts),
	diagonal(15, "rel=employees miner=%s workers=%d", familyMiners, workerCounts))

func TestDifferentialWorkerCounts(t *testing.T) { runPlans(t, workerPlans) }

// tanePlans run TANE, exact and approximate, at every worker count and
// partition-store cap: under a 1-byte cap every product is evicted on
// arrival and recomputed on demand.
var tanePlans = slices.Concat(
	diagonal(24, "rel=paper miner=tane eps=%v workers=%d cap=%d", []any{0, 0.1}, []any{0, 2, 4, 8}, []any{0, 1, 4096}),
	diagonal(24, "rel=employees miner=tane eps=%v workers=%d cap=%d", []any{0, 0.1}, []any{0, 2, 4, 8}, []any{0, 1, 4096}),
	diagonal(6, "rel=rand:%d miner=tane eps=0.1 workers=2 cap=1", upTo(6)))

// TestDifferentialTANEWorkerCounts also checks that the tight caps
// exercised the store's evict and recompute paths.
func TestDifferentialTANEWorkerCounts(t *testing.T) {
	var evictions, recomputes int64
	for _, s := range tanePlans {
		t.Run(s, func(t *testing.T) {
			h := runPlan(t, s)
			evictions += h.evictions
			recomputes += h.recomputes
		})
	}
	if evictions == 0 || recomputes == 0 {
		t.Errorf("the plans made %d evictions and %d recomputes, want both", evictions, recomputes)
	}
}

// keysPlans run the candidate-key search, which shares the worker pool
// and the partition store.
var keysPlans = slices.Concat(
	diagonal(6, "rel=paper miner=keys workers=%d cap=%d", []any{0, 2, 8}, []any{0, 1}),
	diagonal(20, "rel=rand:%d miner=keys workers=%d cap=%d", upTo(20), []any{0, 2, 8}, []any{0, 1}))

func TestDifferentialKeysWorkerCounts(t *testing.T) { runPlans(t, keysPlans) }

// sourcePlans mine a StreamCSV stream and an OpenSnapshot reader.
var sourcePlans = slices.Concat(
	diagonal(12, "rel=paper source=%s miner=%s workers=%d spill=%d", []any{"csv", "snapshot"}, familyMiners, []any{1, 4}, spills),
	diagonal(6, "rel=gen:8x300:0.5:11 source=%s miner=%s workers=%d spill=1", []any{"csv", "snapshot"}, familyMiners, []any{1, 4}),
	diagonal(6, "rel=gen:12x150:0.3:12 source=%s miner=%s workers=%d", []any{"csv", "snapshot"}, familyMiners, []any{4, 1}),
	[]string{
		"rel=paper miner=tane source=snapshot",
		"rel=paper miner=keys source=snapshot",
		"rel=gen:8x300:0.5:11 miner=tane source=snapshot",
		"rel=gen:8x300:0.5:11 miner=keys source=snapshot",
	})

func TestSourceEquivalence(t *testing.T) { runPlans(t, sourcePlans) }

// budgetPlans govern each miner with an ample budget and deadline: the
// result must be the ungoverned one.
var budgetPlans = []string{
	"rel=paper budget=ample",
	"rel=paper miner=fastfds budget=ample workers=2",
	"rel=employees miner=depminer2 budget=ample spill=1",
	"rel=paper miner=tane budget=ample",
	"rel=paper miner=keys budget=ample",
}

func TestBudgetSufficientIsIdentical(t *testing.T) { runPlans(t, budgetPlans) }

// faultPlan is a plan that crosses the fault point.
func faultPlan(point string) string {
	base := "rel=paper workers=2"
	switch point {
	case faultinject.AgreeStride:
		base = "rel=paper miner=depminer2 workers=2"
	case faultinject.TANELevel:
		base = "rel=paper miner=tane"
	case faultinject.PstoreEvict:
		base = "rel=paper miner=tane cap=1"
	case faultinject.PstoreRecompute:
		// The exact search never re-reads a partition on the paper's
		// example; the approximate one fetches every level's partitions,
		// and under a 1-byte cap those fetches recompute.
		base = "rel=paper miner=tane eps=0.05 cap=1"
	case faultinject.KeysLevel:
		base = "rel=paper miner=keys"
	case faultinject.INDLevel:
		base = "rel=paper miner=ind"
	case faultinject.FastFDsAttr:
		base = "rel=paper miner=fastfds"
	case faultinject.ExtsortFlush, faultinject.ExtsortRead, faultinject.ExtsortMerge:
		// A 1-byte threshold clamps to one record per worker: every
		// absorb spills and the final merge reads disk runs.
		base = "rel=paper workers=2 spill=1"
	case faultinject.ShardDispatch, faultinject.ShardStream, faultinject.ShardMerge:
		base = "rel=gen:5x70:0.5:9 via=fleet shards=2"
	}
	return base + " fault=" + point + "@0"
}

// runFaults arms each fault point in turn on a plan that crosses it.
func runFaults(t *testing.T, points []string, suffix string) {
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			if h := runPlan(t, faultPlan(point)+suffix); !h.fired.Load() {
				t.Fatalf("plan %s never crossed its fault point", h.p)
			}
		})
	}
}

func TestFaultInjectionErrors(t *testing.T) {
	runFaults(t, slices.Concat(faultinject.Points(), faultinject.ShardPoints()), "")
}

func TestFaultInjectionPanics(t *testing.T) { runFaults(t, faultinject.Points(), " panic") }

// midRunPlan injects after the first crossing of a worker point, so a
// partially filled accumulator exists when the fault lands.
const midRunPlan = "rel=gen:6x3000:0.7:3 miner=depminer2 workers=2 fault=agree/stride@1 panic"

func TestFaultInjectionMidRun(t *testing.T) { runPlan(t, midRunPlan) }

// planSeeds is the rest of the fixed regression table: degenerate and
// wide shapes, spill thresholds, incremental appends, servers, fleets,
// budgets and faults that fire mid-run.
var planSeeds = []string{
	// No tuples, one tuple, constant columns and duplicates.
	"rel=3:",
	"rel=3:abc miner=fastfds",
	"rel=2:aa/aa/aa workers=2 spill=1",
	"rel=4:ab0c/ab1c/ab0c/ab1c miner=depminer2 source=snapshot",
	"rel=1:a/a/b miner=tane cap=1",
	// Widths around one word: the last attribute agrees on 63 and 65
	// attributes, and differs on 64.
	"rel=63:" + strings.Repeat("ab", 31) + "a/" + strings.Repeat("aa", 32) + " workers=2",
	"rel=64:" + strings.Repeat("ab", 32) + "/" + strings.Repeat("aa", 32) + " miner=depminer2 workers=2 source=csv",
	"rel=65:" + strings.Repeat("ab", 32) + "a/" + strings.Repeat("aa", 33) + " miner=fastfds workers=2 spill=1",
	"rel=65:ab/ba miner=tane",
	// Spill: 1 byte, four records, effectively never.
	"rel=gen:6x80:0.6:11 workers=1 spill=1",
	"rel=gen:6x80:0.6:11 miner=depminer2 workers=8 spill=128",
	"rel=gen:5x60:0.4:13 miner=fastfds workers=2 spill=1099511627776",
	// Incremental, library and server.
	"rel=paper inc split=3",
	"rel=employees inc split=5 miner=fastfds workers=2",
	"rel=paper via=server inc split=4 armstrong",
	"rel=employees via=server split=6 async miner=fastfds",
	// Servers: sync, async, cache, durable snapshot.
	"rel=paper via=server warm armstrong",
	"rel=paper via=server warm",
	"rel=employees via=server source=snapshot armstrong workers=2",
	"rel=gen:5x70:0.5:3 via=server miner=tane",
	// Fleets: shards, spill, more shards than tuples.
	"rel=gen:5x70:0.5:3 via=fleet shards=3 miner=depminer2 spill=1",
	"rel=gen:5x70:0.5:3 via=fleet shards=2 workers=1",
	"rel=gen:5x70:0.5:3 via=fleet shards=3 miner=fastfds async warm armstrong",
	"rel=2:ab/ba via=fleet shards=3",
	"rel=gen:6x40:0.5:5 via=fleet shards=3 source=snapshot",
	// Remote and local shards mixed.
	"rel=gen:5x70:0.5:9 via=fleet shards=3 fault=shard/dispatch@1",
	"rel=gen:5x70:0.5:9 via=fleet shards=3 miner=depminer2 spill=1 fault=shard/stream@2",
	// Budgets that run out.
	"rel=paper budget=3",
	"rel=gen:8x500:0.5:11 miner=fastfds budget=5",
	"rel=paper via=server budget=3",
	// Faults that fire mid-run.
	"rel=gen:8x400:0.6:7 miner=tane workers=2 cap=1 fault=pstore/evict@3 panic",
	"rel=gen:8x400:0.6:7 miner=tane workers=2 cap=1 fault=pstore/recompute@25 panic",
	"rel=paper inc split=2 fault=incremental/insert@1",
	"rel=paper via=server fault=core/lhs@0 panic",
}

func FuzzPlan(f *testing.F) {
	var faults []string
	for _, point := range faultinject.Points() {
		faults = append(faults, faultPlan(point), faultPlan(point)+" panic")
	}
	for _, point := range faultinject.ShardPoints() {
		faults = append(faults, faultPlan(point))
	}
	for _, s := range slices.Concat(paperPlans, goldenPlans, randomPlans, workerPlans, tanePlans,
		keysPlans, sourcePlans, budgetPlans, faults, []string{midRunPlan}, planSeeds) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { runPlan(t, s) })
}
