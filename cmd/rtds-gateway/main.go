// Command rtds-gateway runs the cluster's HTTP front door: multi-tenant
// job submission with quota/rate/laxity admission, a write-ahead job log
// that makes every 202 ack durable across gateway crashes, and a
// Prometheus /metrics plane.
//
// Usage:
//
//	rtds-gateway -listen 127.0.0.1:9100 \
//	             -nodes 127.0.0.1:8400,127.0.0.1:8401,127.0.0.1:8402 \
//	             -joblog /var/lib/rtds/gateway.wal \
//	             -tenants 'acme:rate=50,burst=100,inflight=200;zeta:rate=10'
//
// Endpoints:
//
//	POST /v1/jobs                submit a job (tenant, deadline, graph)
//	GET  /v1/jobs/{id}           decision state of one submission
//	GET  /v1/tenants/{t}/stats   per-tenant admission counters
//	GET  /metrics                Prometheus text exposition
//	GET  /healthz, /readyz       probes
//
// On start the job log is replayed: undecided submissions re-enter the
// cluster, so a SIGKILL between an ack and a cluster decision loses
// nothing (see docs/operations.md for the soak recipe that proves it).
//
// The process exits 0 on SIGINT/SIGTERM after draining HTTP and closing
// the log.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9100", "HTTP listen address")
	nodes := flag.String("nodes", "", "comma-separated rtds-node control-API addresses (required)")
	joblogPath := flag.String("joblog", "", "write-ahead job log path (required)")
	tenants := flag.String("tenants", "", "tenant quotas: name:rate=R,burst=B,inflight=N;... (required)")
	poll := flag.Duration("poll", 200*time.Millisecond, "reconcile period: how often cluster statistics are refreshed, queued jobs re-submitted and the nodes asked for decisions their watchers did not deliver")
	backendTimeout := flag.Duration("backend-timeout", 5*time.Second, "per-request backend HTTP timeout")
	flag.Parse()

	if err := run(*listen, *nodes, *joblogPath, *tenants, *poll, *backendTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "rtds-gateway:", err)
		os.Exit(1)
	}
}

func run(listen, nodes, joblogPath, tenants string, poll, backendTimeout time.Duration) error {
	if nodes == "" {
		return fmt.Errorf("-nodes is required")
	}
	if joblogPath == "" {
		return fmt.Errorf("-joblog is required")
	}
	if tenants == "" {
		return fmt.Errorf("-tenants is required")
	}
	quotas, err := gateway.ParseTenants(tenants)
	if err != nil {
		return fmt.Errorf("-tenants: %w", err)
	}
	backend, err := gateway.NewHTTPBackend(strings.Split(nodes, ","), backendTimeout)
	if err != nil {
		return err
	}
	srv, err := gateway.New(gateway.Options{
		Tenants:      quotas,
		Backend:      backend,
		LogPath:      joblogPath,
		PollInterval: poll,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: listen, Handler: srv}
	errCh := make(chan error, 1)
	//lint:allow spawncheck -- the HTTP listener lives for the process; Shutdown below unblocks ListenAndServe and errCh joins it
	go func() { errCh <- httpSrv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	fmt.Printf("rtds-gateway listening on %s (tenants: %s)\n", listen, tenants)

	select {
	case err := <-errCh:
		srv.Close()
		return err
	case <-sig:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	<-errCh // ListenAndServe returns ErrServerClosed after Shutdown
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Println("rtds-gateway: clean shutdown")
	return nil
}
