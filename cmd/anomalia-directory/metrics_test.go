package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"anomalia"
	"anomalia/internal/dirnet"
)

// TestDirectoryMetricsEndpoint boots run() with both listeners on
// ephemeral ports, drives one abnormal window through a networked
// monitor, and scrapes /metrics: the wire-service counters must show
// the traffic the window generated.
func TestDirectoryMetricsEndpoint(t *testing.T) {
	type bound struct {
		l   net.Listener
		srv *dirnet.Server
	}
	ready := make(chan bound, 1)
	done := make(chan error, 1)
	errR, errW := io.Pipe()
	go func() {
		err := run([]string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, errW,
			func(l net.Listener, srv *dirnet.Server) { ready <- bound{l, srv} })
		errW.Close()
		done <- err
	}()
	// The metrics banner is the first stderr line (printed before the
	// shard banner and the ready hook).
	line, err := bufio.NewReader(errR).ReadString('\n')
	if err != nil {
		t.Fatalf("reading metrics banner: %v", err)
	}
	go io.Copy(io.Discard, errR)
	url := strings.TrimSpace(strings.TrimPrefix(line, "anomalia-directory: serving metrics at "))
	if !strings.HasPrefix(url, "http://") {
		t.Fatalf("unexpected banner %q", line)
	}
	b := <-ready

	const devices, services = 40, 2
	mon, err := anomalia.NewMonitor(devices, services,
		anomalia.WithRadius(0.05), anomalia.WithTau(3),
		anomalia.WithDirectory(anomalia.DirectoryConfig{Addrs: []string{b.l.Addr().String()}}))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(shaken bool) [][]float64 {
		rows := make([][]float64, devices)
		for dev := range rows {
			row := make([]float64, services)
			for s := range row {
				row[s] = 0.9
			}
			if shaken && dev < 12 {
				for s := range row {
					row[s] = 0.6
				}
			}
			rows[dev] = row
		}
		return rows
	}
	if _, err := mon.Observe(snapshot(false)); err != nil {
		t.Fatal(err)
	}
	out, err := mon.Observe(snapshot(true))
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("shaken window produced no abnormal outcome — no wire traffic to count")
	}
	// The server counts a response's bytes once its write returns, which
	// may be after the client has read them: wait for that count.
	for deadline := time.Now().Add(2 * time.Second); b.srv.Counters().BytesWritten == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("scrape Content-Type = %q, want Prometheus 0.0.4 text format", ct)
	}
	scrape := string(body)
	for _, want := range []string{
		"# TYPE anomalia_dirsrv_requests_total counter",
		`anomalia_dirsrv_bytes_total{direction="read"}`,
		`anomalia_dirsrv_bytes_total{direction="written"}`,
		"anomalia_go_heap_alloc_bytes",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q:\n%s", want, scrape)
		}
	}
	// The abnormal window cost at least one connection and one request.
	c := b.srv.Counters()
	if c.Connections < 1 || c.Requests < 1 || c.BytesRead == 0 || c.BytesWritten == 0 {
		t.Errorf("server counters after abnormal window = %+v, want traffic on every axis", c)
	}
	if c.RequestErrors != 0 {
		t.Errorf("server counted %d request errors on a clean stream", c.RequestErrors)
	}
	if !strings.Contains(scrape, "anomalia_dirsrv_connections_total ") ||
		strings.Contains(scrape, "anomalia_dirsrv_connections_total 0\n") {
		t.Errorf("scrape shows no accepted connections:\n%s", scrape)
	}

	b.l.Close()
	if err := <-done; err == nil {
		t.Fatal("run returned nil after listener close")
	}
}

// TestDirectoryMetricsDocSync pins the shard's family names against
// the usage header and the anomalia package's Observability section.
func TestDirectoryMetricsDocSync(t *testing.T) {
	t.Parallel()

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	header, _, found := strings.Cut(string(src), "\npackage main")
	if !found {
		t.Fatal("cannot locate package clause in main.go")
	}
	doc, err := os.ReadFile("../../doc.go")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(doc), "# Observability")
	if !found {
		t.Fatal("doc.go has no Observability section")
	}
	for _, name := range []string{
		"anomalia_dirsrv_connections_total",
		"anomalia_dirsrv_requests_total",
		"anomalia_dirsrv_request_errors_total",
		"anomalia_dirsrv_bytes_total",
	} {
		if !strings.Contains(header, name) {
			t.Errorf("usage comment omits metric family %s", name)
		}
		if !strings.Contains(section, name) {
			t.Errorf("doc.go Observability section omits %s", name)
		}
	}
	if !strings.Contains(header, "-metrics") {
		t.Error("usage comment omits the -metrics flag")
	}
}
