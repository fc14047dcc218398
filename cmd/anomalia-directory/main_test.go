package main

import (
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"anomalia"
	"anomalia/internal/dirnet"
)

// TestRunServesMonitorWindows boots the binary's run() on an ephemeral
// port, points a WithDirectory monitor at it, and checks the networked
// verdicts match an in-process distributed monitor fed the same stream
// — the binary end of the wire parity the dirnet tests establish
// in-process.
func TestRunServesMonitorWindows(t *testing.T) {
	type bound struct {
		l   net.Listener
		srv *dirnet.Server
	}
	ready := make(chan bound, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0"}, io.Discard, func(l net.Listener, srv *dirnet.Server) {
			ready <- bound{l, srv}
		})
	}()
	b := <-ready

	const (
		devices  = 60
		services = 2
	)
	opts := []anomalia.Option{anomalia.WithRadius(0.05), anomalia.WithTau(3)}
	oracle, err := anomalia.NewMonitor(devices, services, append(opts, anomalia.WithDistributed(true))...)
	if err != nil {
		t.Fatal(err)
	}
	networked, err := anomalia.NewMonitor(devices, services,
		append(opts, anomalia.WithDirectory(anomalia.DirectoryConfig{
			Addrs: []string{b.l.Addr().String()},
		}))...)
	if err != nil {
		t.Fatal(err)
	}

	// A quiet baseline tick, then ticks that each shake a block of
	// devices hard enough for the threshold detector to fire.
	snapshot := func(tick int) [][]float64 {
		rows := make([][]float64, devices)
		for dev := range rows {
			row := make([]float64, services)
			for s := range row {
				row[s] = 0.9
			}
			if tick > 0 && dev >= 10 && dev < 10+8+tick {
				for s := range row {
					row[s] = 0.9 - 0.2 - 0.01*float64(tick)
				}
			}
			rows[dev] = row
		}
		return rows
	}
	abnormalWindows := 0
	for tick := 0; tick < 4; tick++ {
		snap := snapshot(tick)
		want, err := oracle.Observe(snap)
		if err != nil {
			t.Fatalf("tick %d oracle: %v", tick, err)
		}
		got, err := networked.Observe(snap)
		if err != nil {
			t.Fatalf("tick %d networked: %v", tick, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tick %d: networked outcome diverged:\nwant %+v\ngot  %+v", tick, want, got)
		}
		if want != nil {
			abnormalWindows++
		}
	}
	if abnormalWindows == 0 {
		t.Fatal("stream produced no abnormal window — test exercised nothing")
	}
	ds := networked.DirStats()
	if ds.Windows != int64(abnormalWindows) || ds.Networked != ds.Windows || ds.Degraded != 0 {
		t.Fatalf("DirStats = %+v, want %d fully networked windows", ds, abnormalWindows)
	}
	// One request per networked window: a single shard decides every
	// window's whole abnormal set.
	if got := b.srv.Counters().Requests; got != int64(abnormalWindows) {
		t.Fatalf("server answered %d requests for %d networked windows", got, abnormalWindows)
	}

	// Closing the listener is the shutdown path; Serve must return.
	b.l.Close()
	if err := <-done; err == nil {
		t.Fatal("run returned nil after listener close, want the accept error")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var errOut strings.Builder
	if err := run([]string{"-iotimeout", "-1s", "-listen", "127.0.0.1:0"}, &errOut, nil); err == nil {
		t.Fatal("negative -iotimeout accepted")
	}
	if err := run([]string{"-listen", "definitely:not:an:addr:0"}, io.Discard, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}
