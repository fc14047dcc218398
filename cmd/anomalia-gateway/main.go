// Command anomalia-gateway runs the streaming monitor over a stream of
// QoS snapshots: one frame per discrete time, devices*services values
// (device-major: dev0_svc0, dev0_svc1, dev1_svc0, ...), each in [0,1].
// For every observation window containing abnormal devices it prints
// the massive / isolated / unresolved verdicts, or with -json one JSON
// object per anomalous window.
//
// Usage:
//
//	anomalia-gateway -devices 48 -services 2 [-r 0.03] [-tau 3]
//	                 [-detector threshold|ewma|cusum|holtwinters|kalman|shewhart]
//	                 [-in snapshots.csv] [-format csv|bin] [-workers 4]
//	                 [-strict] [-hold 2] [-readmit 2] [-maxbad 16]
//	                 [-json] [-distributed] [-directory host:port,host:port]
//	                 [-metrics 127.0.0.1:9137]
//	anomalia-gateway -devices 48 -services 2 -in snaps.csv -convert snaps.bin
//
// With -in omitted, snapshots are read from standard input.
//
// By default the gateway runs in degraded mode: a report that cannot be
// used — a CSV cell that does not parse, a value that is non-finite
// (NaN slips through interval tests, so it is tested by name) or
// outside [0,1], or a whole line that is not valid CSV — costs exactly
// the devices it belongs to, not the stream. The offending device-tick
// is handed to the monitor as missing, a counted diagnostic naming the
// snapshot index and the position (CSV line number, or binary frame
// index and byte offset) goes to standard error, and the monitor's
// per-device health machine takes over: the device's last-known value
// is held for up to -hold consecutive faulty ticks, then the device is
// quarantined out of the window's population until -readmit
// consecutive clean reports re-admit it. -maxbad is the wedged-source
// backstop: that many consecutive snapshots with no usable report at
// all terminate the run (0 disables). -strict restores fail-fast
// ingestion: the first malformed report kills the stream with a
// positioned error, and -hold/-readmit/-maxbad are ignored. Binary
// framing damage — a bad length prefix or a truncated frame — is fatal
// in both modes, with the frame index and byte offset in the error: a
// length-prefixed stream has no line boundaries to resync on.
//
// -format csv reads one CSV row per snapshot; -format bin reads the
// snapio binary stream (per frame: a little-endian uint32 value count,
// then that many little-endian float64 bit patterns), which decodes a
// large fleet's tick several times faster than CSV and without per-tick
// allocation. -convert reads the CSV input once, writes it as binary
// frames to the given path and exits — the bridge from existing CSV
// archives to the fast path; conversion always validates strictly, so
// a produced archive replays clean. -workers shards snapshot
// validation and the per-device detector walk across that many
// goroutines (0 means GOMAXPROCS, 1 forces serial); the abnormal set
// is identical whatever the count.
//
// With -distributed, verdicts are routed through the distributed
// deployment path instead of the in-process characterizer: the abnormal
// trajectories of each abnormal window are indexed in a fresh sharded
// directory service, and each abnormal device decides on the 4r view
// it fetches from it — the same code path the DistCost study of
// anomalia-experiments bills.
// The verdicts are identical (the paper's locality result); each
// anomalous window additionally reports the directory traffic it
// generated. Degraded mode composes with it: devices quarantined out
// of a window are simply absent from that window's index.
//
// -directory takes a comma-separated list of anomalia-directory shard
// addresses and moves the directory service behind the wire (it
// implies -distributed): each abnormal window is decided by the shard
// fleet, with per-request deadlines, bounded retries with jittered
// backoff, and a per-shard circuit breaker; a window the fleet cannot
// serve silently degrades to centralized characterization with
// identical verdicts, so a dead shard never kills the stream.
//
// -metrics addr serves the live Prometheus scrape endpoint at
// http://addr/metrics while the stream runs: the monitor's per-window
// families (tick latency by phase, abnormal count and churn,
// in-process directory builds, the health split, the directory wire ledger, a
// GC/heap sample — see the Observability section of the anomalia
// package documentation) plus the gateway's own ingest counters,
// anomalia_gateway_snapshots_total and
// anomalia_gateway_recovered_errors_total.
//
// With -json each anomalous window is one line {"t":...,"outcome":...},
// the outcome in the anomalia package's window record:
//
//	{"reports":[{"device":17,"class":"massive","rule":"theorem6",
//	  "motion_refs":[0],"cost":{...}}, ...],
//	 "massive":[...],"isolated":[...],"unresolved":[...],
//	 "motions":[[17,18,...], ...],"dist":{...}}
//
// "motions" lists each distinct maximal dense motion of the window once,
// in first-appearance order (reports in device order, each report's
// motions in order), and a report's "motion_refs" are indices into it;
// both are omitted when empty, as are the three verdict sets, and
// "dist" appears only with -distributed or -directory. The record
// depends only on the outcome's value: equal outcomes write equal
// bytes, whichever decision path built them and however it shared
// memory between reports.
//
// At end of stream, -json emits one final summary record after the
// window records: {"summary":{"snapshots":..., "health":{...},
// "dir":{...}}}. health carries the degraded-ingestion counters (live,
// stale, quarantined, quarantines, readmissions, held_ticks,
// dropped_reports, faulty_ticks); dir appears only with -directory and
// carries the networked-window ledger and wire counters (windows,
// networked, degraded, retries, failures, breaker_opens, rejoins,
// bytes_sent, bytes_received, round_trips). Without -json the same
// numbers go to standard error as prose. The summary is flushed on
// every exit path, not just clean EOF: a -maxbad wedge abort or a
// mid-stream ingest/observe error still emits the record (and the
// stderr health/directory ledgers), with the failure spelled out in
// its "aborted" field — the counters an operator needs to diagnose a
// wedge must survive the wedge.
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"anomalia"
	"anomalia/internal/metrics"
	"anomalia/internal/snapio"
)

// The gateway's own metric families; the monitor's families ride the
// same registry (see WithMetrics). Pinned against the anomalia doc.go
// Observability section by a doc-sync test.
const (
	metricSnapshots = "anomalia_gateway_snapshots_total"
	metricRecovered = "anomalia_gateway_recovered_errors_total"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "anomalia-gateway:", err)
		os.Exit(1)
	}
}

// detectorTable is the single source of truth for the -detector flag:
// the selection switch, the flag help and the doc-sync test all derive
// from it, so a detector cannot ship half-documented again (shewhart
// once existed in the switch but not in the usage text).
var detectorTable = []struct {
	name    string
	factory func(int, int) (anomalia.Detector, error)
}{
	{"threshold", func(int, int) (anomalia.Detector, error) {
		return anomalia.NewThresholdDetector(0.05)
	}},
	{"ewma", func(int, int) (anomalia.Detector, error) {
		return anomalia.NewEWMADetector(0.3, 5, 0.01, 3)
	}},
	{"cusum", func(int, int) (anomalia.Detector, error) {
		return anomalia.NewCUSUMDetector(0.01, 0.08, 0.1)
	}},
	{"holtwinters", func(int, int) (anomalia.Detector, error) {
		return anomalia.NewHoltWintersDetector(0.5, 0.3, 0, 6, 0.05, 0)
	}},
	{"kalman", func(int, int) (anomalia.Detector, error) {
		return anomalia.NewKalmanDetector(1e-4, 1e-3, 5)
	}},
	{"shewhart", func(int, int) (anomalia.Detector, error) {
		return anomalia.NewShewhartDetector(5, 0.02, 5)
	}},
}

// detectorNames renders the table's names for help text and errors.
func detectorNames() string {
	names := make([]string, len(detectorTable))
	for i, d := range detectorTable {
		names[i] = d.name
	}
	return strings.Join(names, "|")
}

// detectorFactory resolves the per-service detector selected by name.
func detectorFactory(name string) (func(int, int) (anomalia.Detector, error), error) {
	for _, d := range detectorTable {
		if d.name == name {
			return d.factory, nil
		}
	}
	return nil, fmt.Errorf("unknown detector %q (have %s)", name, detectorNames())
}

// fault is one recovered ingest diagnostic: which device of the tick
// was lost (-1: the whole tick), where in the input it happened, and
// why. The position stays numeric until reportFaults spells the fault
// out, which it does for at most maxFaultDetail per tick. Sources reuse
// the backing slice across ticks.
type fault struct {
	device int   // offending device, -1 when the whole tick is lost
	frame  int   // binary frame index; -1 for a CSV fault
	offset int64 // byte offset of the bad value in a binary stream
	line   int   // CSV line; 0 when the reader could not tell
	reason string
}

// pos renders the fault's position: "line 17" (CSV) or "frame 4 at
// byte 130052" (binary).
func (f fault) pos() string {
	switch {
	case f.frame >= 0:
		return fmt.Sprintf("frame %d at byte %d", f.frame, f.offset)
	case f.line > 0:
		return fmt.Sprintf("line %d", f.line)
	default:
		return "unknown line"
	}
}

// tickSource yields one snapshot per discrete time and io.EOF at the
// end of the stream. In degraded mode an unusable device's row is nil
// and the tick carries one fault per loss; in strict mode the first
// unusable report is an error instead. Implementations reuse the
// returned matrix and fault slice across calls — the monitor copies
// what it keeps before returning, so that is safe.
type tickSource interface {
	Next() ([][]float64, []fault, error)
}

// gradeRow checks one device's values and returns (-1, "") when usable,
// else the offending service index and the reason it is not — the index
// lets callers position the fault at the bad cell, not the device's
// first. Non-finite values are tested by name: v < 0 || v > 1 is false
// for NaN, so the interval test alone would let NaN poison detector and
// characterizer state.
func gradeRow(row []float64) (int, string) {
	for s, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return s, fmt.Sprintf("service %d: non-finite QoS %v", s, v)
		}
		if v < 0 || v > 1 {
			return s, fmt.Sprintf("service %d: QoS %v outside [0,1]", s, v)
		}
	}
	return -1, ""
}

// csvSource parses one CSV record per tick into reused buffers. In
// strict mode any malformed cell or record is a positioned error; in
// degraded mode a malformed cell costs its device the tick and a
// malformed record costs the whole tick, and CSV's line framing means
// the next tick resyncs cleanly either way.
type csvSource struct {
	devices  int
	services int
	strict   bool
	r        *csv.Reader
	flat     []float64
	rows     [][]float64
	faults   []fault
	// dirty marks rows entries nil'd for a faulty tick: snapio.Rows'
	// reuse check only inspects rows[0], so a later clean tick must
	// rebuild the table itself or ship last tick's holes again.
	dirty bool
}

func newCSVSource(r io.Reader, devices, services int, strict bool) *csvSource {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = devices * services
	cr.ReuseRecord = true
	return &csvSource{
		devices:  devices,
		services: services,
		strict:   strict,
		r:        cr,
		flat:     make([]float64, devices*services),
		rows:     make([][]float64, devices),
	}
}

func (s *csvSource) Next() ([][]float64, []fault, error) {
	record, err := s.r.Read()
	if err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		// A record-level fault: wrong field count, bare quote, ... The
		// csv reader already resynced to the next line, so in degraded
		// mode the tick is lost but the stream lives on.
		if s.strict {
			return nil, nil, err // csv.ParseError already carries the line
		}
		line := 0
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			line = pe.Line
		}
		for dev := range s.rows {
			s.rows[dev] = nil
		}
		s.dirty = true
		s.faults = append(s.faults[:0], fault{device: -1, frame: -1, line: line, reason: err.Error()})
		return s.rows, s.faults, nil
	}

	s.faults = s.faults[:0]
	bad := func(dev int, field int, reason string) error {
		line, col := s.r.FieldPos(field)
		if s.strict {
			return fmt.Errorf("line %d column %d: device %d: %s", line, col, dev, reason)
		}
		s.faults = append(s.faults, fault{device: dev, frame: -1, line: line, reason: reason})
		return nil
	}
	for dev := 0; dev < s.devices; dev++ {
	cells:
		for svc := 0; svc < s.services; svc++ {
			i := dev*s.services + svc
			v, err := strconv.ParseFloat(strings.TrimSpace(record[i]), 64)
			if err != nil {
				if err := bad(dev, i, fmt.Sprintf("service %d: %v", svc, err)); err != nil {
					return nil, nil, err
				}
				break cells
			}
			s.flat[i] = v
		}
	}
	// Value policy: grade every device whose cells all parsed — a parse
	// fault already cost its device the tick and must not be re-counted.
	var parseFaulted map[int]bool
	if len(s.faults) > 0 {
		parseFaulted = make(map[int]bool, len(s.faults))
		for _, f := range s.faults {
			parseFaulted[f.device] = true
		}
	}
	for dev := 0; dev < s.devices; dev++ {
		if parseFaulted[dev] {
			continue
		}
		row := s.flat[dev*s.services : (dev+1)*s.services]
		if svc, reason := gradeRow(row); reason != "" {
			if err := bad(dev, dev*s.services+svc, reason); err != nil {
				return nil, nil, err
			}
		}
	}
	if len(s.faults) == 0 && !s.dirty {
		s.rows = snapio.Rows(s.flat, s.rows, s.services)
		return s.rows, nil, nil
	}
	for dev := 0; dev < s.devices; dev++ {
		s.rows[dev] = s.flat[dev*s.services : (dev+1)*s.services : (dev+1)*s.services]
	}
	s.dirty = len(s.faults) > 0
	for _, f := range s.faults {
		s.rows[f.device] = nil
	}
	if len(s.faults) == 0 {
		return s.rows, nil, nil
	}
	return s.rows, s.faults, nil
}

// binSource decodes one snapio frame per tick; the frame reader and the
// row table are both reused, so a steady-state tick does not allocate.
// Framing damage — a bad length prefix, a truncated frame — is fatal in
// both modes (the positioned error comes from snapio: a length-prefixed
// stream cannot resync); value damage costs only the affected devices
// in degraded mode.
type binSource struct {
	services int
	strict   bool
	r        *snapio.FrameReader
	rows     [][]float64
	faults   []fault
	// dirty: see csvSource.dirty.
	dirty bool
}

func newBinSource(r io.Reader, devices, services int, strict bool) *binSource {
	return &binSource{
		services: services,
		strict:   strict,
		r:        snapio.NewFrameReader(r, devices*services),
	}
}

func (s *binSource) Next() ([][]float64, []fault, error) {
	flat, err := s.r.Next()
	if err != nil {
		return nil, nil, err
	}
	frame, start := s.r.Frames()-1, s.r.Offset()-int64(4+8*len(flat))
	s.faults = s.faults[:0]
	for dev := 0; dev*s.services < len(flat); dev++ {
		row := flat[dev*s.services : (dev+1)*s.services]
		svc, reason := gradeRow(row)
		if reason == "" {
			continue
		}
		if s.strict {
			return nil, nil, fmt.Errorf("frame %d at byte %d: device %d: %s", frame, start, dev, reason)
		}
		s.faults = append(s.faults, fault{
			device: dev,
			frame:  frame,
			offset: start + int64(4+8*(dev*s.services+svc)),
			reason: reason,
		})
	}
	s.rows = snapio.Rows(flat, s.rows, s.services)
	if s.dirty {
		for dev := range s.rows {
			s.rows[dev] = flat[dev*s.services : (dev+1)*s.services : (dev+1)*s.services]
		}
	}
	s.dirty = len(s.faults) > 0
	for _, f := range s.faults {
		s.rows[f.device] = nil
	}
	if len(s.faults) == 0 {
		return s.rows, nil, nil
	}
	return s.rows, s.faults, nil
}

// convertCSV streams the CSV input into binary frames at path,
// validating every value on the way (always strictly: a produced
// archive must replay clean), and reports the tick count.
func convertCSV(in io.Reader, path string, devices, services int) (int, error) {
	src := newCSVSource(in, devices, services, true)
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("creating %s: %w", path, err)
	}
	w := snapio.NewFrameWriter(f)
	ticks := 0
	for {
		_, _, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			f.Close()
			return ticks, fmt.Errorf("snapshot %d: %w", ticks, err)
		}
		if err := w.Write(src.flat); err != nil {
			f.Close()
			return ticks, fmt.Errorf("writing frame %d: %w", ticks, err)
		}
		ticks++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return ticks, err
	}
	return ticks, f.Close()
}

// maxFaultDetail bounds how many of a tick's faults are spelled out on
// standard error; the rest are summarized by count so a mass outage
// cannot flood the diagnostics channel.
const maxFaultDetail = 4

// reportFaults emits one counted, positioned diagnostic line for a
// degraded tick.
func reportFaults(w io.Writer, tick int, faults []fault) {
	fmt.Fprintf(w, "snapshot %d: %d fault(s):", tick, len(faults))
	for i, f := range faults {
		if i == maxFaultDetail {
			fmt.Fprintf(w, " ... and %d more", len(faults)-maxFaultDetail)
			break
		}
		if f.device < 0 {
			fmt.Fprintf(w, " [tick lost, %s: %s]", f.pos(), f.reason)
		} else {
			fmt.Fprintf(w, " [device %d, %s: %s]", f.device, f.pos(), f.reason)
		}
	}
	fmt.Fprintln(w)
}

func run(args []string, stdin io.Reader, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("anomalia-gateway", flag.ContinueOnError)
	defaultHealth := anomalia.DefaultHealthPolicy()
	var (
		devices     = fs.Int("devices", 0, "number of monitored devices (required)")
		services    = fs.Int("services", 1, "services per device")
		radius      = fs.Float64("r", anomalia.DefaultRadius, "consistency impact radius")
		tau         = fs.Int("tau", anomalia.DefaultTau, "density threshold")
		detector    = fs.String("detector", "threshold", "error-detection function: "+detectorNames())
		inPath      = fs.String("in", "", "snapshot file (default: stdin)")
		format      = fs.String("format", "csv", "input format: csv, or bin (length-prefixed float64 frames)")
		convertPath = fs.String("convert", "", "convert the CSV input to binary frames at this path and exit")
		workers     = fs.Int("workers", 0, "detector-walk shards: 0 = GOMAXPROCS, 1 = serial")
		strict      = fs.Bool("strict", false, "fail fast on the first malformed report instead of degrading per device")
		holdTicks   = fs.Int("hold", defaultHealth.HoldTicks, "degraded mode: ticks a faulty device's last value is held before quarantine")
		readmit     = fs.Int("readmit", defaultHealth.ReadmitTicks, "degraded mode: consecutive clean reports that re-admit a quarantined device")
		maxBad      = fs.Int("maxbad", 16, "degraded mode: terminate after this many consecutive fully-degraded snapshots (0 disables)")
		asJSON      = fs.Bool("json", false, "emit one JSON object per anomalous window, then a final summary record")
		distMode    = fs.Bool("distributed", false, "decide via the sharded directory service (4r views) instead of the in-process characterizer")
		directory   = fs.String("directory", "", "comma-separated anomalia-directory shard addresses: decide windows over the wire (implies -distributed), degrading to centralized per window when the fleet is unreachable")
		metricsAddr = fs.String("metrics", "", "serve the Prometheus scrape endpoint at http://addr/metrics while the stream runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *devices < 2 {
		return errors.New("-devices is required (>= 2)")
	}
	factory, err := detectorFactory(*detector)
	if err != nil {
		return err
	}

	var input io.Reader = stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return fmt.Errorf("opening %s: %w", *inPath, err)
		}
		defer f.Close()
		input = f
	}

	if *convertPath != "" {
		if *format != "csv" {
			return fmt.Errorf("-convert reads CSV input, not %q", *format)
		}
		ticks, err := convertCSV(input, *convertPath, *devices, *services)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "converted %d snapshots to %s\n", ticks, *convertPath)
		return nil
	}

	var src tickSource
	switch *format {
	case "csv":
		src = newCSVSource(input, *devices, *services, *strict)
	case "bin":
		src = newBinSource(input, *devices, *services, *strict)
	default:
		return fmt.Errorf("unknown format %q (csv or bin)", *format)
	}

	monOpts := []anomalia.Option{
		anomalia.WithRadius(*radius),
		anomalia.WithTau(*tau),
		anomalia.WithDetectorFactory(factory),
		anomalia.WithDistributed(*distMode),
		anomalia.WithIngestWorkers(*workers),
		anomalia.WithHealthPolicy(anomalia.HealthPolicy{HoldTicks: *holdTicks, ReadmitTicks: *readmit}),
	}
	if *directory != "" {
		monOpts = append(monOpts, anomalia.WithDirectory(anomalia.DirectoryConfig{
			Addrs: strings.Split(*directory, ","),
		}))
	}
	var (
		reg          *metrics.Registry
		ctrSnapshots *metrics.Counter
		ctrRecovered *metrics.Counter
	)
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		ctrSnapshots = reg.Counter(metricSnapshots, "Snapshots ingested by the gateway.")
		ctrRecovered = reg.Counter(metricRecovered, "Device-reports lost to recovered ingest faults (degraded mode).")
		monOpts = append(monOpts, anomalia.WithMetrics(reg))
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics %s: %w", *metricsAddr, err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		go http.Serve(ln, mux)
		fmt.Fprintf(errOut, "serving metrics at http://%s/metrics\n", ln.Addr())
	}
	mon, err := anomalia.NewMonitor(*devices, *services, monOpts...)
	if err != nil {
		return err
	}

	var (
		row           int
		degradedTicks int
		faultTotal    int
		consecLost    int
		record        []byte // the -json line buffer, reused per window
	)
	// The stream loop runs in a closure so that every exit path — clean
	// EOF, the -maxbad wedge abort, a mid-stream ingest or observe error
	// — falls through to the same final flush below: the operator
	// diagnosing an abort needs the summary counters most of all.
	streamErr := func() error {
		for {
			snapshot, faults, err := src.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("snapshot %d: %w", row, err)
			}
			if len(faults) > 0 {
				degradedTicks++
				reportFaults(errOut, row, faults)
				lost := len(faults)
				if faults[0].device < 0 {
					lost = *devices
				}
				faultTotal += lost
				if ctrRecovered != nil {
					ctrRecovered.Add(int64(lost))
				}
				if lost == *devices {
					consecLost++
					if *maxBad > 0 && consecLost >= *maxBad {
						return fmt.Errorf("snapshot %d: %d consecutive snapshots with no usable report — source looks wedged", row, consecLost)
					}
				} else {
					consecLost = 0
				}
			} else {
				consecLost = 0
			}
			var outcome *anomalia.Outcome
			if *strict {
				outcome, err = mon.Observe(snapshot)
			} else {
				outcome, err = mon.ObservePartial(snapshot)
			}
			if err != nil {
				return fmt.Errorf("observing snapshot %d: %w", row, err)
			}
			if ctrSnapshots != nil {
				ctrSnapshots.Inc()
			}
			if outcome != nil {
				if *asJSON {
					if record, err = emitJSON(out, record, row, outcome); err != nil {
						return err
					}
				} else {
					fmt.Fprintf(out, "t=%d abnormal=%d massive=%v isolated=%v unresolved=%v",
						row, len(outcome.Reports), outcome.Massive, outcome.Isolated, outcome.Unresolved)
					if outcome.Dist != nil {
						fmt.Fprintf(out, " dist_msgs=%d dist_trajs=%d",
							outcome.Dist.Messages, outcome.Dist.Trajectories)
					}
					fmt.Fprintln(out)
				}
			}
			row++
		}
	}()
	aborted := ""
	if streamErr != nil {
		aborted = streamErr.Error()
	}
	if *asJSON {
		if err := emitSummary(out, row, mon, *directory != "", aborted); err != nil && streamErr == nil {
			return err
		}
	} else if streamErr == nil {
		fmt.Fprintf(out, "processed %d snapshots\n", row)
	} else {
		fmt.Fprintf(out, "aborted after %d snapshots: %s\n", row, aborted)
	}
	if degradedTicks > 0 {
		hs := mon.HealthStats()
		fmt.Fprintf(errOut, "degraded stream: %d fault(s) across %d snapshot(s); health: %d live, %d stale, %d quarantined; %d quarantine(s), %d readmission(s), %d held tick(s)\n",
			faultTotal, degradedTicks, hs.Live, hs.Stale, hs.Quarantined, hs.Quarantines, hs.Readmissions, hs.HeldTicks)
	}
	if *directory != "" {
		ds := mon.DirStats()
		fmt.Fprintf(errOut, "networked directory: %d abnormal window(s): %d over the wire, %d degraded to centralized; %d retry(ies), %d failure(s), %d breaker open(s), %d rejoin(s); %d B sent, %d B received over %d round-trip(s)\n",
			ds.Windows, ds.Networked, ds.Degraded, ds.Retries, ds.Failures, ds.BreakerOpens, ds.Rejoins, ds.BytesSent, ds.BytesReceived, ds.RoundTrips)
	}
	return streamErr
}

// runSummary is the end-of-run record a -json stream closes with: the
// tick count, the health split and lifetime degraded-ingestion
// counters, and — when -directory routed windows over the wire — the
// networked directory ledger. On an abnormal exit (the -maxbad wedge
// backstop, a mid-stream ingest or observe error) the record still
// flushes, with the failure in "aborted".
type runSummary struct {
	Snapshots int                  `json:"snapshots"`
	Aborted   string               `json:"aborted,omitempty"`
	Health    anomalia.HealthStats `json:"health"`
	Dir       *anomalia.DirStats   `json:"dir,omitempty"`
}

// summaryRecord wraps the summary so the stream's final line is
// distinguishable from window records by its top-level key.
type summaryRecord struct {
	Summary runSummary `json:"summary"`
}

func emitSummary(out io.Writer, snapshots int, mon *anomalia.Monitor, networked bool, aborted string) error {
	rec := summaryRecord{Summary: runSummary{
		Snapshots: snapshots,
		Aborted:   aborted,
		Health:    mon.HealthStats(),
	}}
	if networked {
		ds := mon.DirStats()
		rec.Summary.Dir = &ds
	}
	return json.NewEncoder(out).Encode(rec)
}

// emitJSON writes the JSON line of one anomalous window,
// {"t":...,"outcome":...} and a newline: the bytes json.Encoder writes
// for it. The line is appended whole into buf, reused from the previous
// window, and written once; emitJSON returns the buffer for the next
// window.
func emitJSON(out io.Writer, buf []byte, t int, outcome *anomalia.Outcome) ([]byte, error) {
	buf = strconv.AppendInt(append(buf[:0], `{"t":`...), int64(t), 10)
	buf = outcome.AppendJSON(append(buf, `,"outcome":`...))
	buf = append(buf, "}\n"...)
	_, err := out.Write(buf)
	return buf, err
}
