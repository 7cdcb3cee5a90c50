package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/client"
	"repro/internal/datagen"
	"repro/internal/server"
	"repro/wire"
)

// clients is the closed loop's width on every server workload: two SDK
// callers sharing at most two keep-alive connections, one per core of
// the 2-vCPU testbed.
const clients = 2

// node is one in-process depminerd: server.New behind a loopback TCP
// listener served by net/http, so requests take the real HTTP,
// middleware and JSON paths.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startNode boots a server; wrap, when set, wraps its handler.
func startNode(cfg server.Config, wrap func(http.Handler) http.Handler) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown(context.Background()))
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(h)
	}
	n := &node{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return n, nil
}

// stop closes the listener, waits for in-flight requests, then drains
// the server; a durable one folds its WALs into snapshots.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := n.hs.Shutdown(ctx)
	<-n.done
	return errors.Join(herr, n.srv.Shutdown(ctx))
}

// sdk is the SDK client of the closed loop with its transport, so its
// connections can be closed at the end.
type sdk struct {
	*client.Client
	tr *http.Transport
}

// newClient builds the loop's client: retries off, so a 429 counts as a
// failure instead of hiding a one-second backoff, and at most two
// connections.
func (b *bench) newClient(url string) *sdk {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	return &sdk{
		Client: client.New(url,
			client.WithHTTPClient(&http.Client{Transport: tr}),
			client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1}),
			client.WithAttemptObserver(func(a client.Attempt) {
				if a.Try > 1 {
					b.retries.Add(1)
				}
			})),
		tr: tr,
	}
}

func (c *sdk) close() { c.tr.CloseIdleConnections() }

// wrap returns the handler wrapper of a node on traced runs: spans around
// each request, as "handler" on the node clients talk to and as
// "worker.<path>" on shard workers. Untraced runs serve unwrapped.
func (b *bench) wrap(worker bool) func(http.Handler) http.Handler {
	if !b.cfg.trace {
		return nil
	}
	return func(h http.Handler) http.Handler { return b.tr.handlerSpans(h, worker) }
}

// opCtx tags a traced op's requests with its id.
func opCtx(ctx context.Context, ph *phase, id int64) context.Context {
	if !ph.traced {
		return ctx
	}
	return client.WithRequestID(ctx, requestID(id))
}

// discoverOp is an SDK discover of dataset id whose cover must equal want.
func discoverOp(c *sdk, ph *phase, id string, want []string) op {
	return op{kind: "discover", run: func(ctx context.Context, opID int64) (func() error, error) {
		resp, err := c.Discover(opCtx(ctx, ph, opID), wire.DiscoverRequest{Dataset: id})
		if err != nil {
			return nil, err
		}
		ph.pipeline(opID, resp.ElapsedMS, resp.Cached)
		return func() error { return sameCover(resp.FDs, want) }, nil
	}}
}

// dataset is one generated relation a server workload registers.
type dataset struct {
	csv  []byte     // header plus the registered rows
	tail [][]string // rows appended after registration
	want []string   // reference cover of registered plus tail rows
}

// genDatasets generates n relations of spec, registering the first
// spec.Rows-tail rows of each and appending the rest.
func (b *bench) genDatasets(ctx context.Context, n int, spec datagen.Spec, tail int) ([]dataset, error) {
	out := make([]dataset, n)
	for i := range out {
		spec.Seed = b.cfg.seed<<16 | uint64(i)
		r, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		rows := rowsOf(r)
		reg := len(rows) - tail
		if out[i].csv, err = encodeCSV(r.Names(), rows[:reg]); err != nil {
			return nil, err
		}
		out[i].tail = rows[reg:]
		ref, err := b.reference(ctx, r)
		if err != nil {
			return nil, err
		}
		out[i].want = render(ref, r.Names())
	}
	return out, nil
}

// checkWarm compares set-up discover responses with the references.
func (b *bench) checkWarm(resps []*wire.DiscoverResponse, sets []dataset) {
	for i, resp := range resps {
		if err := sameCover(resp.FDs, sets[i].want); err != nil {
			b.wrongCover(true, "warm-up discover of dataset %d: %v", i, err)
		}
	}
}

func runServeHit(ctx context.Context, b *bench) error {
	n, spec := 16, datagen.Spec{Attrs: 8, Rows: 1000, Correlation: 0.4}
	if b.cfg.smoke {
		n, spec.Rows = 4, 200
	}
	sets, err := b.genDatasets(ctx, n, spec, 0)
	if err != nil {
		return err
	}
	var nd *node
	var c *sdk
	ids := make([]string, n)
	warm := make([]*wire.DiscoverResponse, n)
	defer func() {
		if nd != nil {
			c.close()
			_ = nd.stop() // the run's outcome is decided; a drain error changes nothing
		}
	}()
	for range b.setupReps() {
		if nd != nil {
			c.close()
			if err := nd.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if nd, err = startNode(server.Config{}, b.wrap(false)); err != nil {
			return err
		}
		c = b.newClient(nd.url)
		for i, ds := range sets {
			reg, err := c.Register(ctx, fmt.Sprintf("hit-%d", i), ds.csv)
			if err != nil {
				return fmt.Errorf("register: %w", err)
			}
			ids[i] = reg.ID
		}
		for i, id := range ids {
			if warm[i], err = c.Discover(ctx, wire.DiscoverRequest{Dataset: id}); err != nil {
				return fmt.Errorf("warm-up discover: %w", err)
			}
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
		b.checkWarm(warm, sets)
	}

	return b.halves(ctx, func(ctx context.Context, ph *phase) error {
		return b.serverPhase(ctx, ph, c, func() {
			b.drive(ctx, clients, ph, until(time.Now().Add(ph.length), func(k int64) op {
				i := int(k % int64(n))
				return discoverOp(c, ph, ids[i], sets[i].want)
			}))
		})
	})
}

func runServeFleet(ctx context.Context, b *bench) error {
	n, spec := 12, datagen.Spec{Attrs: 8, Rows: 2001, Correlation: 0.4}
	if b.cfg.smoke {
		n, spec.Rows = 9, 101 // still more datasets than cache entries
	}
	sets, err := b.genDatasets(ctx, n, spec, 1)
	if err != nil {
		return err
	}
	var f *fleet
	defer func() {
		if f != nil {
			_ = f.stop() // the run's outcome is decided; a drain error changes nothing
		}
	}()
	for k := range b.setupReps() {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		f, err = b.startFleet(ctx, filepath.Join(b.cfg.dir, fmt.Sprintf("fleet-%d", k)), sets)
		if err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
		b.checkWarm(f.warm, sets)
	}

	return b.halves(ctx, func(ctx context.Context, ph *phase) error {
		return b.serverPhase(ctx, ph, f.c, func() {
			b.drive(ctx, clients, ph, until(time.Now().Add(ph.length), func(k int64) op {
				i := int(k % int64(n))
				return discoverOp(f.c, ph, f.ids[i], sets[i].want)
			}))
		})
	})
}

// fleet is a coordinator with its two shard workers.
type fleet struct {
	workers []*node
	coord   *node
	c       *sdk
	ids     []string
	warm    []*wire.DiscoverResponse
}

// startFleet boots two memory-only workers and a durable coordinator,
// registers every dataset and appends its tail (a dataset that was only
// registered never gets a snapshot: compaction skips an empty tail),
// restarts the coordinator so each dataset is served from its snapshot,
// and discovers each once so the workers hold every dataset.
func (b *bench) startFleet(ctx context.Context, dir string, sets []dataset) (f *fleet, err error) {
	f = &fleet{ids: make([]string, len(sets)), warm: make([]*wire.DiscoverResponse, len(sets))}
	defer func() {
		if err != nil {
			err = errors.Join(err, f.stop())
		}
	}()
	var urls []string
	for w := range 2 {
		nd, err := startNode(server.Config{SpillDir: filepath.Join(dir, fmt.Sprintf("spill-w%d", w))}, b.wrap(true))
		if err != nil {
			return f, err
		}
		f.workers = append(f.workers, nd)
		urls = append(urls, nd.url)
	}
	cfg := server.Config{
		DataDir:         filepath.Join(dir, "data"),
		SpillDir:        filepath.Join(dir, "spill"),
		CacheEntries:    8,
		MaxAgreeBytes:   256,
		WorkerEndpoints: urls,
	}
	if f.coord, err = startNode(cfg, nil); err != nil {
		return f, err
	}
	f.c = b.newClient(f.coord.url)
	for i, ds := range sets {
		reg, err := f.c.Register(ctx, fmt.Sprintf("fleet-%d", i), ds.csv)
		if err != nil {
			return f, fmt.Errorf("register: %w", err)
		}
		f.ids[i] = reg.ID
		if _, err := f.c.Append(ctx, reg.ID, ds.tail); err != nil {
			return f, fmt.Errorf("append tail: %w", err)
		}
	}
	f.c.close()
	err = f.coord.stop()
	f.coord = nil
	if err != nil {
		return f, err
	}
	if f.coord, err = startNode(cfg, b.wrap(false)); err != nil {
		return f, err
	}
	f.c = b.newClient(f.coord.url)
	for i, id := range f.ids {
		if f.warm[i], err = f.c.Discover(ctx, wire.DiscoverRequest{Dataset: id}); err != nil {
			return f, fmt.Errorf("warm-up discover: %w", err)
		}
	}
	return f, nil
}

// stop shuts the coordinator down before its workers.
func (f *fleet) stop() error {
	var err error
	if f.coord != nil {
		if f.c != nil {
			f.c.close()
		}
		err = f.coord.stop()
		f.coord = nil
	}
	for _, w := range f.workers {
		err = errors.Join(err, w.stop())
	}
	f.workers = nil
	return err
}

// serverPhase runs one measured phase against a single server and, on
// the traced phase, derives the server-side per-layer metrics from the
// server's /v1/stats counters over the phase.
func (b *bench) serverPhase(ctx context.Context, ph *phase, c *sdk, run func()) error {
	if !ph.traced {
		run()
		return nil
	}
	before, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	run()
	after, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	var cn counters
	cn.add(before, after)
	b.serverLayers(ph, &cn)
	return nil
}
