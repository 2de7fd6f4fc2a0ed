// Command aced is the extraction daemon: internal/serve behind a
// plain net/http listener, with signal-driven graceful shutdown.
//
// Usage:
//
//	aced [flags]
//
// Endpoints:
//
//	POST /extract   one CIF upload (raw body or multipart "file" part)
//	                → wirelist, or ?diag=json → report + wirelist
//	POST /batch     multipart form of CIF files → JSON results array
//	GET  /healthz   liveness (503 while draining)
//	GET  /statz     load, shed and cache counters as JSON
//
// Every error response is an RFC 7807 problem document carrying the
// CLI exit taxonomy. SIGINT/SIGTERM begins a graceful drain: the
// listener stops accepting, queued requests are shed with 503, and
// in-flight extractions get -drain-timeout to finish before the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ace/internal/guard"
	"ace/internal/serve"
)

var (
	flagAddr           = flag.String("addr", "127.0.0.1:7823", "listen address")
	flagMaxInFlight    = flag.Int("max-in-flight", 0, "max concurrent extractions (0: GOMAXPROCS)")
	flagQueueDepth     = flag.Int("queue-depth", 0, "max queued requests (0: 4x max-in-flight)")
	flagQueueWait      = flag.Duration("queue-wait", serve.DefaultQueueWait, "max time a request may queue for a slot")
	flagRequestTimeout = flag.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request deadline (<0: none)")
	flagDrainTimeout   = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight work")
	flagMaxBody        = flag.Int64("max-body-bytes", serve.DefaultMaxBodyBytes, "largest accepted upload")
	flagMaxBoxes       = flag.Int64("max-boxes", 0, "per-request box budget (0: unlimited)")
	flagMaxDepth       = flag.Int("max-depth", 0, "per-request hierarchy-depth budget (0: default)")
	flagMaxMem         = flag.Int64("max-mem-bytes", 0, "per-request memory budget (0: unlimited)")
	flagTenantHeader   = flag.String("tenant-header", "", "header naming the tenant (default X-Ace-Tenant)")
	flagTenantInFlight = flag.Int("tenant-in-flight", 0, "per-tenant concurrency cap (0: off)")
	flagCacheDir       = flag.String("cache-dir", "", "persistent result-cache directory (empty: memory only)")
	flagCacheMaxBytes  = flag.Int64("cache-max-bytes", 0, "result-cache size cap (0: store default)")
)

func main() {
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "aced: unexpected arguments; aced takes only flags")
		os.Exit(2)
	}

	srv, err := serve.New(serve.Options{
		MaxInFlight:    *flagMaxInFlight,
		QueueDepth:     *flagQueueDepth,
		QueueWait:      *flagQueueWait,
		RequestTimeout: *flagRequestTimeout,
		MaxBodyBytes:   *flagMaxBody,
		Limits: guard.Limits{
			MaxBoxes:    *flagMaxBoxes,
			MaxDepth:    *flagMaxDepth,
			MaxMemBytes: *flagMaxMem,
		},
		TenantHeader:   *flagTenantHeader,
		TenantInFlight: *flagTenantInFlight,
		CacheDir:       *flagCacheDir,
		CacheMaxBytes:  *flagCacheMaxBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "aced:", err)
		os.Exit(1)
	}
	if w := srv.CacheWarning(); w != "" {
		// Degraded, not fatal: the daemon serves correct bytes without
		// its disk tier; /statz reports cache_degraded until restart.
		fmt.Fprintln(os.Stderr, "aced: warning:", w)
	}

	ln, err := net.Listen("tcp", *flagAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aced:", err)
		os.Exit(1)
	}
	// The resolved address on stdout lets harnesses use -addr :0.
	fmt.Printf("aced: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "aced: %v: draining (budget %v)\n", s, *flagDrainTimeout)
	case err := <-done:
		fmt.Fprintln(os.Stderr, "aced:", err)
		os.Exit(1)
	}

	// Drain order: stop admitting first (queued work sheds with 503),
	// then close the listener, then wait — bounded — for in-flight
	// extractions, then shut the HTTP layer down.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *flagDrainTimeout)
	defer cancel()
	drainErr := srv.Drain(ctx)
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "aced: shutdown:", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "aced: drain timeout: in-flight work abandoned")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "aced: drained cleanly")
}
