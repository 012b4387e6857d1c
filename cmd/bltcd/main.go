// Command bltcd is the treecode daemon: a stdlib-only HTTP server that
// evaluates barycentric-Lagrange-treecode solve requests against a cache
// of immutable plans keyed by geometry hash (see internal/serve and
// docs/serving.md).
//
// Start it, POST a geometry once, then stream solves against the cached
// plan:
//
//	bltcd -addr :7070
//	curl -s localhost:7070/v1/plans  -d @geometry.json   # -> {"plan":"<key>",...}
//	curl -s localhost:7070/v1/solve  -d '{"plan":"<key>","kernel":{"name":"coulomb"},"charges":[...]}'
//	curl -s localhost:7070/metrics
//
// With -smoke, bltcd starts an in-process daemon on a loopback port, runs
// one end-to-end solve against it (checked bit-for-bit against the
// library) and shuts down: the CI smoke gate. Latency and throughput
// under load are measured by bltcbench's serve-open-2k workload
// (bench/README.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"barytree/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":7070", "listen address")
		maxPlans   = flag.Int("max-plans", 0, "plan-cache bound (0 = default 16, LRU beyond)")
		inflight   = flag.Int("inflight", 0, "max admitted concurrent solves (0 = default 64); excess gets 429")
		workers    = flag.Int("workers", 0, "host goroutines per pass (0 = all cores; results identical)")
		maxBodyMB  = flag.Int64("max-body-mb", 0, "request body cap in MiB (0 = default 256)")
		traceSpans = flag.Int("trace-spans", 0, "span cap of the /trace buffer (0 = default 4096)")
		smoke      = flag.Bool("smoke", false, "start, solve once against itself, verify, shut down")
	)
	flag.Parse()

	cfg := serve.Config{
		MaxPlans:        *maxPlans,
		MaxInFlight:     *inflight,
		Workers:         *workers,
		MaxRequestBytes: *maxBodyMB << 20,
		TraceSpans:      *traceSpans,
	}

	if *smoke {
		if err := runSmoke(cfg); err != nil {
			log.Fatalf("bltcd smoke: %v", err)
		}
		fmt.Println("bltcd smoke: ok")
		return
	}
	if err := runDaemon(cfg, *addr); err != nil {
		log.Fatal(err)
	}
}

// runDaemon serves until SIGINT/SIGTERM, then drains connections.
func runDaemon(cfg serve.Config, addr string) error {
	srv := &http.Server{Addr: addr, Handler: serve.New(cfg).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("bltcd listening on %s", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		log.Printf("bltcd: %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Printf("bltcd: clean shutdown")
		return nil
	}
}

// startLocal starts an in-process daemon on an ephemeral loopback port and
// returns its base URL and a clean-shutdown func, so -smoke goes through a
// real socket.
func startLocal(cfg serve.Config) (base string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: serve.New(cfg).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	shutdown = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
