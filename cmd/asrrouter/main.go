// Command asrrouter is the shard-routing front tier for a fleet of
// asrserve backends: it accepts streaming decode sessions (the same
// NDJSON protocol asrserve speaks — clients need no changes) and
// shards each session to a backend by rendezvous hashing on the
// session id, with periodic TCP health probes, deterministic failover
// to the next backend in hash order, and byte-for-byte propagation of
// backend replies — including rejects and their retry_after_ms
// backoff hints. Transcripts through the router are bit-identical to
// dialing the backend directly: after the handshake the router never
// touches the byte stream.
//
// Usage:
//
//	asrrouter -backends localhost:8093,localhost:8094
//	          [-addr localhost:8092] [-health-interval 500ms]
//	          [-dial-timeout 2s] [-retry-after 250ms]
//	          [-drain-timeout 30s] [-metrics-addr localhost:9090] [-v]
//
// SIGTERM/SIGINT drains gracefully: new sessions are refused, spliced
// sessions run to completion, then the process exits 0. -addr with
// port 0 picks a free port; the resolved address is printed as
// "listening on HOST:PORT" (the line TestFleetProcesses and the
// benchmark parse).
// Topology and semantics are documented in docs/SERVING.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("asrrouter: ")
	addr := flag.String("addr", "localhost:8092", "listen address (port 0 = pick a free port)")
	backends := flag.String("backends", "", "comma-separated asrserve addresses (required)")
	healthInterval := flag.Duration("health-interval", 500*time.Millisecond, "backend TCP health-probe period")
	dialTimeout := flag.Duration("dial-timeout", 2*time.Second, "backend connect timeout (probes and routing)")
	retryAfter := flag.Duration("retry-after", 250*time.Millisecond, "backoff hint on router-originated rejects")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for spliced sessions on shutdown")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (enables observation)")
	verbose := flag.Bool("v", false, "enable observation and print the metrics summary on exit")
	flag.Parse()

	if *verbose {
		obs.Enable()
	}
	obs.ServeBackground(*metricsAddr)

	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("-backends is required (comma-separated asrserve addresses)")
	}

	rt, err := router.New(router.Config{
		Backends:       addrs,
		HealthInterval: *healthInterval,
		DialTimeout:    *dialTimeout,
		RetryAfter:     *retryAfter,
	})
	if err != nil {
		log.Fatal(err)
	}
	bound, err := rt.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s\n", bound)
	log.Printf("routing across %d backends: %s", len(addrs), strings.Join(addrs, ", "))

	drained := make(chan error, 1)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		log.Printf("%v: draining (%d sessions routed so far)...", sig, rt.Routed())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drained <- rt.Shutdown(ctx)
	}()

	if err := rt.Serve(); err != nil {
		log.Fatal(err)
	}
	if err := <-drained; err != nil {
		log.Fatalf("drain: %v", err)
	}
	log.Printf("drained cleanly; %d sessions routed", rt.Routed())
	if *verbose {
		if err := obs.Default.WriteText(os.Stderr); err != nil {
			log.Printf("metrics summary: %v", err)
		}
	}
}
