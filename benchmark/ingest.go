package main

import (
	"fmt"
	"io"
	"math"

	"anomalia/internal/snapio"
)

// source is the gateway's binary ingest: one snapio frame per tick,
// resliced into rows, with every row that holds a non-finite or
// out-of-[0,1] value nil'd and recorded as a positioned fault (degraded
// mode) or rejected (strict mode). It mirrors the gateway's binSource,
// fault records included, since the gateway builds them on every
// degraded tick.
type source struct {
	strict bool
	in     feed
	fr     *snapio.FrameReader
	rows   [][]float64
	faults []fault
	// dirty marks rows nil'd last tick: snapio.Rows only checks rows[0]
	// before reusing the table, so the holes must be refilled by hand.
	dirty bool
}

// fault is one unusable report, as the gateway records it.
type fault struct {
	device int
	pos    string
	reason string
}

func newSource(n int, strict bool) *source {
	s := &source{strict: strict}
	s.fr = snapio.NewFrameReader(&s.in, n*services)
	return s
}

// next decodes one frame into rows and the tick's faults; both are
// reused by the following call.
func (s *source) next(frame []byte) ([][]float64, []fault, error) {
	s.in.reset(frame)
	flat, err := s.fr.Next()
	if err != nil {
		return nil, nil, err
	}
	at, start := s.fr.Frames()-1, s.fr.Offset()-int64(4+8*len(flat))
	s.faults = s.faults[:0]
	for dev := 0; dev*services < len(flat); dev++ {
		svc, reason := gradeRow(flat[dev*services : (dev+1)*services])
		if reason == "" {
			continue
		}
		if s.strict {
			return nil, nil, fmt.Errorf("frame %d at byte %d: device %d: %s", at, start, dev, reason)
		}
		s.faults = append(s.faults, fault{
			device: dev,
			pos:    fmt.Sprintf("frame %d at byte %d", at, start+int64(4+8*(dev*services+svc))),
			reason: reason,
		})
	}
	s.rows = snapio.Rows(flat, s.rows, services)
	if s.dirty {
		for dev := range s.rows {
			s.rows[dev] = flat[dev*services : (dev+1)*services : (dev+1)*services]
		}
	}
	s.dirty = len(s.faults) > 0
	for _, f := range s.faults {
		s.rows[f.device] = nil
	}
	return s.rows, s.faults, nil
}

// gradeRow is the gateway's: (-1, "") for a usable row, else the
// offending service and the reason.
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

// maxFaultDetail is the gateway's cap on faults spelled out per line.
const maxFaultDetail = 4

// reportFaults formats the gateway's diagnostic line for a degraded
// tick. The benchmark writes it to io.Discard: the formatting is the
// gateway's work, the standard-error write is not measured.
func reportFaults(w io.Writer, tick int, faults []fault) {
	fmt.Fprintf(w, "snapshot %d: %d fault(s):", tick, len(faults))
	for i, f := range faults {
		if i == maxFaultDetail {
			fmt.Fprintf(w, " ... and %d more", len(faults)-maxFaultDetail)
			break
		}
		fmt.Fprintf(w, " [device %d, %s: %s]", f.device, f.pos, f.reason)
	}
	fmt.Fprintln(w)
}

// feed hands the frame reader one frame per tick: reset points it at
// the generator's frame and Read drains it.
type feed struct {
	b   []byte
	off int
}

func (f *feed) reset(b []byte) { f.b, f.off = b, 0 }

func (f *feed) Read(p []byte) (int, error) {
	if f.off >= len(f.b) {
		return 0, io.EOF
	}
	n := copy(p, f.b[f.off:])
	f.off += n
	return n, nil
}
