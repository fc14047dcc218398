// Command anomalia-directory hosts one shard of the networked
// directory service: a dirnet.Server holding a full directory replica
// behind the length-prefixed binary protocol, answering the window
// stream (init / incremental moved-stream advance) and the decision
// and view queries a Monitor configured with WithDirectory sends.
//
// Usage:
//
//	anomalia-directory -listen 127.0.0.1:9053 [-iotimeout 2s]
//	                   [-metrics 127.0.0.1:9138]
//
// Run one process per shard and hand the Monitor (or
// anomalia-gateway's -directory flag) the full address list. A shard
// keeps no durable state: after a crash the next client window
// re-seeds it over the wire (statusNeedInit → msgInit), so restarting
// a shard costs one extra round-trip, never a wrong verdict —
// meanwhile the client's breaker fails its slice over to the
// surviving shards, and a window no shard can serve degrades to the
// Monitor's centralized fallback with identical verdicts.
//
// -iotimeout bounds one frame read or response write once a request's
// first byte arrives; the wait for the next request is unbounded,
// because idle connections are normal between abnormal windows.
//
// -metrics addr serves the shard's Prometheus scrape endpoint at
// http://addr/metrics: the wire-service counters
// (anomalia_dirsrv_connections_total, anomalia_dirsrv_requests_total,
// anomalia_dirsrv_request_errors_total,
// anomalia_dirsrv_bytes_total{direction=read|written}, and the held
// window sequence anomalia_dirsrv_window_seq) plus the anomalia_go_*
// runtime GC/heap sample, all refreshed on scrape.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"anomalia/internal/dirnet"
	"anomalia/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "anomalia-directory:", err)
		os.Exit(1)
	}
}

// run parses flags, listens, and serves until the listener dies. The
// ready hook (tests) receives the bound listener and the server before
// the accept loop starts — closing the listener is the shutdown path.
func run(args []string, errOut io.Writer, ready func(l net.Listener, srv *dirnet.Server)) error {
	fs := flag.NewFlagSet("anomalia-directory", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		listen      = fs.String("listen", "127.0.0.1:9053", "address to listen on")
		ioTimeout   = fs.Duration("iotimeout", dirnet.DefaultRequestTimeout, "per-request IO deadline once a request's first byte arrives")
		metricsAddr = fs.String("metrics", "", "serve the Prometheus scrape endpoint at http://addr/metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ioTimeout <= 0 {
		return fmt.Errorf("-iotimeout %v: must be positive", *ioTimeout)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer l.Close()
	srv := dirnet.NewServer()
	srv.IOTimeout = *ioTimeout
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics %s: %w", *metricsAddr, err)
		}
		defer ml.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", metricsHandler(srv))
		go http.Serve(ml, mux)
		fmt.Fprintf(errOut, "anomalia-directory: serving metrics at http://%s/metrics\n", ml.Addr())
	}
	fmt.Fprintf(errOut, "anomalia-directory: shard listening on %s\n", l.Addr())
	if ready != nil {
		ready(l, srv)
	}
	err = srv.Serve(l)
	srv.Close()
	return err
}

// metricsHandler builds the shard's registry: the dirnet server's wire
// counters and the runtime sample, both refreshed by OnScrape hooks —
// a shard has no per-window loop to feed them from, and sampling on
// scrape is exactly as fresh.
func metricsHandler(srv *dirnet.Server) http.Handler {
	reg := metrics.NewRegistry()
	conns := reg.Counter("anomalia_dirsrv_connections_total", "Connections accepted by the shard.")
	reqs := reg.Counter("anomalia_dirsrv_requests_total", "Requests answered (any status).")
	reqErrs := reg.Counter("anomalia_dirsrv_request_errors_total", "Requests answered with an application error status.")
	bytesRead := reg.Counter("anomalia_dirsrv_bytes_total", "Frame bytes moved, prefix included.", metrics.Label{Name: "direction", Value: "read"})
	bytesWritten := reg.Counter("anomalia_dirsrv_bytes_total", "Frame bytes moved, prefix included.", metrics.Label{Name: "direction", Value: "written"})
	seq := reg.Gauge("anomalia_dirsrv_window_seq", "Window sequence the directory currently holds (0 = none).")
	reg.OnScrape(func() {
		c := srv.Counters()
		conns.Set(c.Connections)
		reqs.Set(c.Requests)
		reqErrs.Set(c.RequestErrors)
		bytesRead.Set(c.BytesRead)
		bytesWritten.Set(c.BytesWritten)
		seq.Set(float64(srv.Seq()))
	})
	metrics.RegisterRuntime(reg)
	return reg.Handler()
}
