package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/wire"
)

// ingest is serve-ingest's input: one generated table whose first base
// rows are registered and whose remaining rows are appended, one per
// append op, in the order a shared cursor hands them out.
type ingest struct {
	names []string
	rows  [][]string
	base  int
	csv   []byte
	// ops is an episode's length: half appends, a quarter incremental
	// re-derivations, a quarter depminer discoveries.
	ops int
}

// episodeLog is what one episode's oracle needs: which generator row
// each append committed and the cover each read returned.
type episodeLog struct {
	mu      sync.Mutex
	appends []appendRec
	reads   []readRec
	// broken marks an episode with a failed append: its committed rows
	// are unknown, so its reads cannot be checked.
	broken bool
}

type appendRec struct {
	rows int // AppendResponse.Rows: at least the row count right after this append committed
	gen  int // the generator row appended
}

type readRec struct {
	kind string
	rows int
	hash uint64
}

// runServeIngest measures writes beside reads on one live table. The
// table grows with every append, so a fixed-duration loop on one table
// would let a faster build append more rows and slow its own
// discoveries. Instead the phase is a series of identical episodes —
// boot a fresh durable server, register the base rows, run one seeded
// op sequence of fixed length, shut down — repeated until the phase's
// time is spent. Only the op sequences are timed.
func runServeIngest(ctx context.Context, b *bench) error {
	spec := datagen.Spec{Attrs: 8, Rows: 2400, Correlation: 0.4, Seed: b.cfg.seed}
	in := &ingest{base: 2000, ops: 800}
	if b.cfg.smoke {
		spec.Rows, in.base, in.ops = 240, 200, 80
	}
	gen, err := datagen.Generate(spec)
	if err != nil {
		return err
	}
	in.names, in.rows = gen.Names(), rowsOf(gen)
	if in.csv, err = encodeCSV(in.names, in.rows[:in.base]); err != nil {
		return err
	}
	final, err := b.reference(ctx, gen)
	if err != nil {
		return err
	}
	finalHash := coverHash(render(final, in.names))

	var logs []*episodeLog
	err = b.halves(ctx, func(ctx context.Context, ph *phase) error {
		var cn counters
		for e := 0; e == 0 || ph.wall < ph.length; e++ {
			lg, err := b.episode(ctx, ph, in, e, &cn, finalHash)
			if err != nil {
				return err
			}
			logs = append(logs, lg)
		}
		if ph.traced {
			b.serverLayers(ph, &cn)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return b.checkIngest(ctx, in, logs)
}

// episode runs one op sequence against a fresh durable server and checks
// the final state it leaves behind.
func (b *bench) episode(ctx context.Context, ph *phase, in *ingest, e int, cn *counters, finalHash uint64) (*episodeLog, error) {
	name := "untraced"
	if ph.traced {
		name = "traced"
	}
	dir := filepath.Join(b.cfg.dir, fmt.Sprintf("ingest-%s-%d", name, e))
	defer os.RemoveAll(dir)

	t0 := time.Now()
	nd, err := startNode(server.Config{
		DataDir:       filepath.Join(dir, "data"),
		SpillDir:      filepath.Join(dir, "spill"),
		MaxAgreeBytes: 1024,
	}, b.wrap(false))
	if err != nil {
		return nil, err
	}
	c := b.newClient(nd.url)
	stop := func() error {
		c.close()
		return nd.stop()
	}
	reg, err := c.Register(ctx, "ingest", in.csv)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("register: %w", err), stop())
	}
	if !ph.traced {
		b.setup = append(b.setup, time.Since(t0).Seconds())
	}

	lg := &episodeLog{}
	kinds := in.sequence(b.cfg.seed, e)
	var next, cursor atomic.Int64
	cursor.Store(int64(in.base))
	read := func(kind, algorithm string) op {
		return op{kind: kind, run: func(ctx context.Context, id int64) (func() error, error) {
			resp, err := c.Discover(opCtx(ctx, ph, id), wire.DiscoverRequest{Dataset: reg.ID, Algorithm: algorithm})
			if err != nil {
				return nil, err
			}
			ph.pipeline(id, resp.ElapsedMS, resp.Cached)
			return func() error {
				lg.record(readRec{kind: kind, rows: resp.Rows, hash: coverHash(resp.FDs)})
				return nil
			}, nil
		}}
	}
	appendOp := op{kind: "append", run: func(ctx context.Context, id int64) (func() error, error) {
		g := int(cursor.Add(1) - 1)
		resp, err := c.Append(opCtx(ctx, ph, id), reg.ID, [][]string{in.rows[g]})
		if err != nil {
			lg.mu.Lock()
			lg.broken = true
			lg.mu.Unlock()
			return nil, err
		}
		return func() error {
			lg.mu.Lock()
			defer lg.mu.Unlock()
			lg.appends = append(lg.appends, appendRec{rows: resp.Rows, gen: g})
			return nil
		}, nil
	}}
	discover, inc := read("discover", ""), read("inc", "incremental")

	before, err := c.Stats(ctx)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("stats: %w", err), stop())
	}
	b.drive(ctx, clients, ph, func() (op, bool) {
		i := next.Add(1) - 1
		if i >= int64(len(kinds)) {
			return op{}, false
		}
		switch kinds[i] {
		case "append":
			return appendOp, true
		case "inc":
			return inc, true
		default:
			return discover, true
		}
	})
	after, err := c.Stats(ctx)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("stats: %w", err), stop())
	}
	cn.add(before, after)

	// Every append has landed, so the table holds all generated rows:
	// both read paths must return the full table's cover.
	for _, algorithm := range []string{"", "incremental"} {
		resp, err := c.Discover(ctx, wire.DiscoverRequest{Dataset: reg.ID, Algorithm: algorithm})
		if err != nil {
			return nil, errors.Join(fmt.Errorf("final-state discover: %w", err), stop())
		}
		if !lg.broken && (resp.Rows != len(in.rows) || coverHash(resp.FDs) != finalHash) {
			b.wrongCover(true, "episode %d final state (%q, %d rows): cover differs from the reference", e, algorithm, resp.Rows)
		}
	}
	return lg, stop()
}

func (lg *episodeLog) record(r readRec) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.reads = append(lg.reads, r)
}

// sequence is episode e's op kinds: a seeded shuffle of exactly ops/2
// appends, ops/4 incremental reads and ops/4 discovers. Every episode
// of a run, traced or not, replays the same sequence for the same e.
func (in *ingest) sequence(seed uint64, e int) []string {
	kinds := make([]string, 0, in.ops)
	for i := range in.ops {
		switch {
		case i < in.ops/2:
			kinds = append(kinds, "append")
		case i < in.ops*3/4:
			kinds = append(kinds, "inc")
		default:
			kinds = append(kinds, "discover")
		}
	}
	rng := rand.New(rand.NewPCG(seed, uint64(e)))
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// samples is how many mid-episode reads the ingest oracle replays.
const samples = 64

// checkIngest replays a seeded sample of the reads the episodes made
// against library covers of the same rows. Concurrent appends can commit
// out of cursor order, and an append reports a row count taken after
// its commit, possibly after a later one too. A read at m rows is
// therefore checked only when exactly m-base appends reported a count
// ≤ m: those appends are then exactly the rows the server held.
func (b *bench) checkIngest(ctx context.Context, in *ingest, logs []*episodeLog) error {
	type candidate struct {
		lg   *episodeLog
		read readRec
	}
	var pool []candidate
	for _, lg := range logs {
		if lg.broken {
			continue
		}
		counts := make([]int, len(lg.appends))
		for i, a := range lg.appends {
			counts[i] = a.rows
		}
		sort.Ints(counts)
		for _, r := range lg.reads {
			if sort.SearchInts(counts, r.rows+1) == r.rows-in.base {
				pool = append(pool, candidate{lg, r})
			}
		}
	}
	rng := rand.New(rand.NewPCG(b.cfg.seed, 0x1a6e57))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > samples {
		pool = pool[:samples]
	}
	for _, cand := range pool {
		rows := append([][]string(nil), in.rows[:in.base]...)
		for _, a := range cand.lg.appends {
			if a.rows <= cand.read.rows {
				rows = append(rows, in.rows[a.gen])
			}
		}
		r, err := relation.FromRows(in.names, rows)
		if err != nil {
			return err
		}
		ref, err := b.reference(ctx, r)
		if err != nil {
			return err
		}
		if coverHash(render(ref, in.names)) != cand.read.hash {
			b.wrongCover(true, "%s read at %d rows: cover differs from the library cover of the same rows", cand.read.kind, cand.read.rows)
		}
	}
	b.mu.Lock()
	b.replayed = len(pool)
	b.mu.Unlock()
	return nil
}
