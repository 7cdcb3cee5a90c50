// Command depminerd is the FD-discovery server: a long-running HTTP
// (JSON) daemon owning a dataset registry, an admission-controlled job
// queue, a fingerprint-keyed result cache, and incremental discovery
// sessions — the serving layer composing every pipeline in this
// repository into one process.
//
// Usage:
//
//	depminerd -addr 127.0.0.1:8080
//
// Endpoints (see README "Running the server" for curl examples):
//
//	POST /v1/datasets            register a CSV relation (?name=, ?header=)
//	GET  /v1/datasets            list registered datasets
//	GET  /v1/datasets/{id}       one dataset's info
//	POST /v1/datasets/{id}/rows  append headerless CSV rows incrementally
//	POST /v1/discover            run (or fetch cached) FD discovery
//	GET  /v1/jobs/{id}           poll an async discovery job
//	GET  /v1/stats               queue, cache, phase-timing, pstore counters
//	GET  /v1/version             build identity (module version, VCS revision)
//	GET  /metrics                Prometheus text exposition of the same counters
//	GET  /healthz                pure process liveness (200 even mid-drain)
//	GET  /readyz                 readiness: 503 while draining or durably degraded
//
// Structured logs go to stderr; -log-level/-log-format layer over the
// DEPMINER_LOG_LEVEL/DEPMINER_LOG_FORMAT environment. -pprof-addr serves
// /debug/pprof on a separate listener (off by default).
//
// SIGINT/SIGTERM starts a graceful drain: in-flight discoveries finish
// under their budgets while new work is refused; a second signal kills
// the process (the internal/cli signal contract). A clean drain exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/server"
)

// config carries the resolved command-line configuration.
type config struct {
	addr         string
	pprofAddr    string
	drainTimeout time.Duration
	log          obs.Config
	server       server.Config
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "how long a graceful shutdown waits for in-flight discoveries")
	flag.IntVar(&cfg.server.MaxJobs, "max-jobs", 4, "cap on concurrently running discoveries; excess requests get 429 + Retry-After")
	flag.DurationVar(&cfg.server.RetryAfter, "retry-after", time.Second, "delay hinted in 429 Retry-After headers (rendered as RFC 9110 delta-seconds, min 1)")
	flag.IntVar(&cfg.server.SyncRowLimit, "sync-rows", 5000, "datasets up to this many rows run /v1/discover synchronously; larger ones become async jobs")
	flag.DurationVar(&cfg.server.MaxTimeout, "max-timeout", 2*time.Minute, "cap (and default) for per-request discovery deadlines")
	flag.Int64Var(&cfg.server.MaxBudgetUnits, "max-budget", 0, "cap (and default) for per-request guard unit budgets; 0 = ungoverned by units")
	flag.Int64Var(&cfg.server.MaxBodyBytes, "max-body-bytes", 32<<20, "cap on request bodies (CSV uploads)")
	flag.IntVar(&cfg.server.MaxDatasets, "max-datasets", 64, "cap on registered datasets")
	flag.IntVar(&cfg.server.CacheEntries, "cache-entries", 128, "cap on result-cache entries (LRU)")
	flag.IntVar(&cfg.server.Workers, "workers", 0, "worker-pool width for discoveries: caps and defaults a request's workers (0 = all cores)")
	flag.Int64Var(&cfg.server.MaxAgreeBytes, "max-agree-bytes", 0, "cap (and default) for resident agree-set bytes per discovery; past it sorted runs spill to disk (0 = in-memory)")
	flag.StringVar(&cfg.server.SpillDir, "spill-dir", "", "directory for spilled agree-set runs (empty = system temp dir)")
	flag.StringVar(&cfg.server.DataDir, "data-dir", "", "data directory for durable datasets (WAL + snapshots, recovered on boot); empty = memory-only")
	fsync := flag.Bool("fsync", true, "fsync every acknowledged write (durable mode only); false trades crash-durability of the latest appends for speed")
	flag.IntVar(&cfg.server.SnapshotEvery, "snapshot-every", 0, "WAL records per dataset before background compaction into a snapshot (0 = default 256, negative = never)")
	workerEndpoints := flag.String("workers-endpoints", "", "comma-separated worker depminerd base URLs; non-empty makes this server a shard coordinator for depminer/depminer2/fastfds discoveries")
	shardRole := flag.String("shard-role", "", "optional role sanity check: \"coordinator\" requires -workers-endpoints, \"worker\" forbids it (empty = no check)")
	flag.StringVar(&cfg.log.Level, "log-level", "", "log level: debug, info, warn, error (empty = $DEPMINER_LOG_LEVEL, else info)")
	flag.StringVar(&cfg.log.Format, "log-format", "", "log format: text or json (empty = $DEPMINER_LOG_FORMAT, else text)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "listen address for /debug/pprof (empty = profiling off)")
	version := flag.Bool("version", false, "print the build identity and exit")
	flag.Parse()
	if *version {
		b := obs.Build()
		dirty := ""
		if b.Dirty {
			dirty = ", dirty"
		}
		fmt.Printf("depminerd %s (revision %s%s, %s)\n", b.Version, b.Revision, dirty, b.GoVersion)
		return
	}
	cfg.server.DisableFsync = !*fsync
	if *workerEndpoints != "" {
		cfg.server.WorkerEndpoints = strings.Split(*workerEndpoints, ",")
	}
	switch *shardRole {
	case "":
	case "coordinator":
		if len(cfg.server.WorkerEndpoints) == 0 {
			fmt.Fprintln(os.Stderr, "depminerd: -shard-role coordinator requires -workers-endpoints")
			os.Exit(2)
		}
	case "worker":
		if len(cfg.server.WorkerEndpoints) != 0 {
			fmt.Fprintln(os.Stderr, "depminerd: -shard-role worker must not set -workers-endpoints")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "depminerd: unknown -shard-role %q (coordinator or worker)\n", *shardRole)
		os.Exit(2)
	}

	cli.Main("depminerd", func(ctx context.Context) error {
		return run(ctx, cfg, func(addr string) {
			fmt.Printf("depminerd: listening on http://%s\n", addr)
		})
	})
}

// run serves until ctx is cancelled (the signal context), then drains.
// ready is called with the bound address once the listener is up — the
// smoke tests and -addr :0 users discover the port from it.
func run(ctx context.Context, cfg config, ready func(addr string)) error {
	// Flags layer over the environment: an explicit -log-level wins, an
	// unset one keeps $DEPMINER_LOG_LEVEL's answer, and info/text is the
	// final fallback.
	logger, err := obs.NewLogger(os.Stderr, cfg.log.Layer(obs.ConfigFromEnv()))
	if err != nil {
		return err
	}
	cfg.server.Logger = logger
	srv, err := server.New(cfg.server)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// The profiling surface is opt-in and on its own listener: operator
	// tooling, never part of the API address.
	var ps *http.Server
	if cfg.pprofAddr != "" {
		pln, perr := net.Listen("tcp", cfg.pprofAddr)
		if perr != nil {
			return fmt.Errorf("pprof listener: %w", perr)
		}
		ps = &http.Server{Handler: obs.PprofMux(), ReadHeaderTimeout: 5 * time.Second}
		logger.Info("pprof listening", slog.String("addr", pln.Addr().String()))
		go func() {
			if serr := ps.Serve(pln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
				logger.Error("pprof server failed", slog.String("error", serr.Error()))
			}
		}()
	}

	select {
	case serr := <-errc:
		return serr
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "depminerd: draining (in-flight discoveries finish under their budgets; signal again to kill)")
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	derr := srv.Shutdown(dctx)
	herr := hs.Shutdown(dctx)
	if herr != nil && !errors.Is(herr, http.ErrServerClosed) {
		derr = errors.Join(derr, herr)
	}
	if ps != nil {
		_ = ps.Shutdown(dctx)
	}
	// A clean drain after a signal is the daemon's normal exit: code 0.
	return derr
}
