// Command rskipd is the RSkip service daemon: the compile → profile →
// protect pipeline served over HTTP JSON, so many clients share one
// warm build cache and one bounded fault-injection worker pool.
//
// Usage:
//
//	rskipd [-addr :8321] [-workers 2] [-queue 16] [-sync 4]
//	       [-max-body 1048576] [-checkpoint-dir dir] [-result-cache-dir dir]
//	       [-compile-timeout 30s] [-run-timeout 30s] [-max-run-timeout 2m]
//	       [-drain-timeout 30s] [-lease-ttl 10s]
//	       [-trace out.jsonl] [-trace-tree] [-metrics out.json]
//
//	rskipd -worker -join http://host:8321 [-worker-name id] [-poll 2s] [-workers n]
//
// Endpoints: POST /v1/compile, POST /v1/run, POST/GET/DELETE
// /v1/campaigns (with /{id} and /{id}/stream),
// POST /v1/fabric/{lease,heartbeat,complete}, GET /healthz, GET
// /metrics, GET /debug/pprof/ — all on one listener.
//
// With -worker, the process runs as a fabric worker instead of a
// server: it pulls shard leases of distributed campaigns from the
// coordinator named by -join, executes them locally, and streams
// results back. SIGINT/SIGTERM stops the worker mid-shard; the
// coordinator's lease TTL reassigns its unfinished work.
//
// SIGINT/SIGTERM drain gracefully: submissions are refused, running
// campaigns checkpoint and stop, and a daemon restarted with the same
// -checkpoint-dir resumes them to bit-identical results.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rskip/internal/obs"
	"rskip/internal/server"
)

func main() {
	var (
		addr           = flag.String("addr", ":8321", "listen address")
		workers        = flag.Int("workers", 2, "campaign worker pool size")
		queue          = flag.Int("queue", 16, "campaign queue depth (429 beyond it)")
		syncLimit      = flag.Int("sync", 0, "concurrent synchronous compile/run slots (0 = 2×workers)")
		maxBody        = flag.Int64("max-body", 1<<20, "request body size limit in bytes")
		ckDir          = flag.String("checkpoint-dir", "", "persist jobs + campaign checkpoints here (resumable across restarts)")
		resultDir      = flag.String("result-cache-dir", "", "content-addressed per-region campaign results here (enables incremental campaigns)")
		compileTimeout = flag.Duration("compile-timeout", 30*time.Second, "per-request build timeout")
		runTimeout     = flag.Duration("run-timeout", 30*time.Second, "default /v1/run wall-clock timeout")
		maxRunTimeout  = flag.Duration("max-run-timeout", 2*time.Minute, "cap on client-requested run timeouts")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		leaseTTL       = flag.Duration("lease-ttl", 10*time.Second, "distributed-campaign shard lease TTL (silent workers lose their shards after this)")
		workerMode     = flag.Bool("worker", false, "run as a fabric worker pulling shard leases from -join instead of serving")
		join           = flag.String("join", "", "coordinator base URL for -worker mode (e.g. http://host:8321)")
		workerName     = flag.String("worker-name", "", "stable worker identity for -worker mode (default hostname-pid)")
		poll           = flag.Duration("poll", 2*time.Second, "idle lease poll interval for -worker mode")
		tracePath      = flag.String("trace", "", "write spans as JSON lines to this file (retains spans in memory; debugging only)")
		traceTree      = flag.Bool("trace-tree", false, "print the span tree to stderr at exit")
		metricsPath    = flag.String("metrics", "", "also write the metrics registry as JSON to this file at exit")
	)
	flag.Parse()

	cli, err := obs.SetupCLI(obs.CLIConfig{
		TracePath: *tracePath, TraceTree: *traceTree, MetricsPath: *metricsPath,
	})
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := cli.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "rskipd:", err)
		}
	}()
	// The daemon always carries a metrics registry — /metrics serves
	// it — but only opts into span retention when tracing was asked
	// for explicitly (a Tracer keeps every span for tree rendering,
	// which an always-on daemon must not do by default).
	o := cli.O()
	if o == nil {
		o = &obs.Obs{Metrics: obs.NewMetrics()}
	} else if o.Metrics == nil {
		o.Metrics = obs.NewMetrics()
	}

	if *workerMode {
		wk, err := server.NewWorker(server.WorkerConfig{
			Join: *join, Name: *workerName, Poll: *poll, Workers: *workers, Obs: o,
		})
		if err != nil {
			fatal(err)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := wk.Run(ctx); err != nil && ctx.Err() == nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "rskipd: worker stopped")
		return
	}

	srv, err := server.New(server.Config{
		Workers: *workers, QueueDepth: *queue, SyncLimit: *syncLimit,
		MaxBodyBytes:   *maxBody,
		CompileTimeout: *compileTimeout, DefaultRunTimeout: *runTimeout,
		MaxRunTimeout:  *maxRunTimeout,
		CheckpointDir:  *ckDir,
		ResultCacheDir: *resultDir,
		LeaseTTL:       *leaseTTL,
		Obs:            o,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "rskipd: serving on http://%s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		fatal(err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "rskipd: %v — draining (budget %v)\n", got, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain first (jobs checkpoint, streams end), then close the HTTP
	// side so in-flight responses finish.
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "rskipd:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "rskipd: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "rskipd: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rskipd:", err)
	os.Exit(1)
}
